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
// stdout, stderr and exit code.
func runCommand(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "GRIDCMP_TEST_ARGS="+strings.Join(args, " "))
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
		_, stderr, code := runCommand(t, args...)
		if code != 2 || !strings.Contains(stderr, args[0]) || strings.Contains(stderr, "panic:") {
			t.Errorf("%s: exit code %d, want 2 naming %s without a panic; stderr:\n%s", args, code, args[0], stderr)
		}
	}
}

// TestHugeFiguresPrintTheirDigits: -vftp-whole 1e300 puts both
// whole-period cells past 2^63, which used to print as
// -9,223,372,036,854,775,808.
func TestHugeFiguresPrintTheirDigits(t *testing.T) {
	stdout, stderr, code := runCommand(t, "-vftp-whole", "1e300")
	if code != 0 || strings.Contains(stdout, "-9,223,372,036,854,775,808") || !strings.Contains(stdout, "World Community Grid") {
		t.Errorf("exit code %d, want 0 without a wrapped int64; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}
