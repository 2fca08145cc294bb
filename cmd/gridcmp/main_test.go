package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command in a child process: with
// GRIDCMP_TEST_ARGS set, the test binary is the gridcmp command with those
// arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("GRIDCMP_TEST_ARGS"); ok {
		os.Args = append([]string{"gridcmp"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs the command with args in a child process and returns its
// stderr and exit code.
func runCommand(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "GRIDCMP_TEST_ARGS="+strings.Join(args, " "))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return stderr.String(), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stderr.String(), 0
}

// TestBadFlagValuesExitTwo: a flag value out of range exits 2 with a
// message naming the flag and no panic. -procs 0 and -factor 0 used to
// panic, and -factor NaN exited 0 with a dedicated grid of
// -9,223,372,036,854,775,808 processors.
func TestBadFlagValuesExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-procs", "0"},
		{"-factor", "0"},
		{"-factor", "NaN"},
		{"-vftp-whole", "NaN"},
		{"-vftp-full", "-1"},
	} {
		stderr, code := runCommand(t, args...)
		if code != 2 || !strings.Contains(stderr, args[0]) || strings.Contains(stderr, "panic:") {
			t.Errorf("%s: exit code %d, want 2 naming %s without a panic; stderr:\n%s", args, code, args[0], stderr)
		}
	}
}
