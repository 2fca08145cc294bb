package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command in a child process: with
// FORECAST_TEST_ARGS set, the test binary is the forecast command with those
// arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("FORECAST_TEST_ARGS"); ok {
		os.Args = append([]string{"forecast"}, strings.Fields(args)...)
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
	cmd.Env = append(os.Environ(), "FORECAST_TEST_ARGS="+strings.Join(args, " "))
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
// message naming the flag and no panic. -proteins 0, -weeks 0 and
// -reduction 0 used to panic, while -share 0, -share NaN and
// -reduction NaN exited 0.
func TestBadFlagValuesExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-proteins", "0"},
		{"-weeks", "0"},
		{"-weeks", "NaN"},
		{"-reduction", "0"},
		{"-reduction", "NaN"},
		{"-share", "0"},
		{"-share", "NaN"},
		{"-share", "1.5"},
	} {
		_, stderr, code := runCommand(t, args...)
		if code != 2 || !strings.Contains(stderr, args[0]) || strings.Contains(stderr, "panic:") {
			t.Errorf("%s: exit code %d, want 2 naming %s without a panic; stderr:\n%s", args, code, args[0], stderr)
		}
	}
}

// TestHugeFiguresPrintTheirDigits: -weeks 1e-300 puts phase II's VFTP and
// members past 2^63, which used to print as -9,223,372,036,854,775,808.
func TestHugeFiguresPrintTheirDigits(t *testing.T) {
	stdout, stderr, code := runCommand(t, "-weeks", "1e-300")
	if code != 0 || strings.Contains(stdout, "-9,223,372,036,854,775,808") || !strings.Contains(stdout, "Nb members") {
		t.Errorf("exit code %d, want 0 without a wrapped int64; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}
