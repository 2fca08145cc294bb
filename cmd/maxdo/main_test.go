package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command in a child process: with
// MAXDO_TEST_ARGS set, the test binary is the maxdo command with those
// arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("MAXDO_TEST_ARGS"); ok {
		os.Args = append([]string{"maxdo"}, strings.Fields(args)...)
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
	cmd.Env = append(os.Environ(), "MAXDO_TEST_ARGS="+strings.Join(args, " "))
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

// TestNrotOutOfRangeExitsOne: -nrot outside [1, 21] is one of maxdo's
// range errors, exit 1 with a message naming the flag and no panic.
// -nrot 22 used to panic, and -nrot 0 exited 0 with no result lines.
func TestNrotOutOfRangeExitsOne(t *testing.T) {
	for _, nrot := range []string{"22", "0", "-1"} {
		stderr, code := runCommand(t, "-nrot", nrot)
		if code != 1 || !strings.Contains(stderr, "-nrot") || strings.Contains(stderr, "panic:") {
			t.Errorf("-nrot %s: exit code %d, want 1 naming -nrot without a panic; stderr:\n%s", nrot, code, stderr)
		}
	}
}
