package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command in a child process: with
// WUPACK_TEST_ARGS set, the test binary is the wupack command with those
// arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("WUPACK_TEST_ARGS"); ok {
		os.Args = append([]string{"wupack"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs the command with args in a child process and returns its
// stdout, stderr and exit code.
func runCommand(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "WUPACK_TEST_ARGS="+strings.Join(args, " "))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return stdout.String(), stderr.String(), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), 0
}

// TestBadFlagValuesExitTwo: a flag value out of range exits 2 with a
// message naming the flag and no panic. -bins 0 used to panic, and
// -hours NaN exited 0 printing "NaN h".
func TestBadFlagValuesExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-bins", "0"},
		{"-bins", "-3"},
		{"-hours", "NaN"},
		{"-hours", "+Inf"},
		{"-hours", "0"},
	} {
		_, stderr, code := runCommand(t, args...)
		if code != 2 || !strings.Contains(stderr, args[0]) || strings.Contains(stderr, "panic:") {
			t.Errorf("%s: exit code %d, want 2 naming %s without a panic; stderr:\n%s", args, code, args[0], stderr)
		}
	}
}

// TestHugeHoursPackOneWorkunitPerCouple: a wanted duration longer than any
// couple packs each of the 168 × 168 couples into one workunit. At -hours
// 1e20 the h/ct quotient used to overflow int before the §4.2 clamp, and
// every starting position became its own workunit (49,481,544).
func TestHugeHoursPackOneWorkunitPerCouple(t *testing.T) {
	for _, hours := range []string{"1e6", "1e20", "1e300"} {
		stdout, stderr, code := runCommand(t, "-hours", hours)
		if code != 0 || !strings.Contains(stdout, "Nb wu = 28,224\n") {
			t.Errorf("-hours %s: exit code %d, want 0 and 28,224 workunits; stdout:\n%s\nstderr:\n%s", hours, code, stdout, stderr)
		}
	}
}
