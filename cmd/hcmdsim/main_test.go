package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run the command in a child process: with
// HCMDSIM_TEST_ARGS set, the test binary is the hcmdsim command with those
// arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("HCMDSIM_TEST_ARGS"); ok {
		os.Args = append([]string{"hcmdsim"}, strings.Fields(args)...)
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
	cmd.Env = append(os.Environ(), "HCMDSIM_TEST_ARGS="+strings.Join(args, " "))
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
// message naming the flag and no panic, before anything is printed or
// -outdir is created. -fig1days -1 used to run the whole campaign and
// then panic while writing Figure 1, a bad fault flag was refused only
// after the planning tables, a week-long maintenance window or more than
// one outage a minute panicked in the fault plane after them, and -hours
// -1 ran as the deployed 3.7 h that only 0 stands for. -shards is no
// longer a flag.
func TestBadFlagValuesExitTwo(t *testing.T) {
	outdir := filepath.Join(t.TempDir(), "out")
	for _, args := range [][]string{
		{"-fig1days", "-1"},
		{"-fig1days", "0"},
		{"-fig1days", "100000000"},
		{"-outage-rate", "Inf"},
		{"-maintenance-hours", "168"},
		{"-outage-rate", "10081"},
		{"-hours", "-1"},
		{"-shards", "2"},
	} {
		stdout, stderr, code := runCommand(t, append(args, "-outdir", outdir)...)
		if code != 2 || !strings.Contains(stderr, args[0]) || strings.Contains(stderr, "panic:") || stdout != "" {
			t.Errorf("%s: exit code %d, want 2 naming %s without a panic or output; stdout:\n%s\nstderr:\n%s",
				args, code, args[0], stdout, stderr)
		}
		if _, err := os.Stat(outdir); !os.IsNotExist(err) {
			t.Fatalf("%s: a rejected run created -outdir (stat err %v)", args, err)
		}
	}
}
