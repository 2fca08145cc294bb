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
// OBSCAT_TEST_ARGS set, the test binary is the obscat command with those
// arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("OBSCAT_TEST_ARGS"); ok {
		os.Args = append([]string{"obscat"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runObscat writes each content to a file of its own, runs the command on
// them after args in a child process, and returns its stdout, stderr and
// exit code.
func runObscat(t *testing.T, args []string, contents ...string) (string, string, int) {
	t.Helper()
	dir := t.TempDir()
	for i, c := range contents {
		path := filepath.Join(dir, string(rune('a'+i))+".ndjson")
		if err := os.WriteFile(path, []byte(c), 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, path)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "OBSCAT_TEST_ARGS="+strings.Join(args, " "))
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

const (
	metricLine = `{"t":0,"week":0,"series":"wcg-sent","v":1}` + "\n"
	traceLine  = `{"t":0,"week":0,"event":"run-start"}` + "\n"
)

// TestMalformedLinesExitOne: a line that does not parse, and a null line,
// which parses but is no JSON object, each exit 1 naming file:line.
func TestMalformedLinesExitOne(t *testing.T) {
	for name, bad := range map[string]string{
		"malformed": `{"series":` + "\n",
		"null":      "null\n",
		"array":     "[1]\n",
	} {
		stdout, stderr, code := runObscat(t, nil, metricLine+bad)
		if code != 1 || !strings.Contains(stderr, "a.ndjson:2:") || strings.Contains(stdout, "lines ok") {
			t.Errorf("%s line: exit %d, want 1 naming a.ndjson:2; stdout:\n%s\nstderr:\n%s", name, code, stdout, stderr)
		}
	}
}

// TestBlankLinesSkipped: blank lines neither fail nor count.
func TestBlankLinesSkipped(t *testing.T) {
	stdout, stderr, code := runObscat(t, []string{"-q"}, "\n"+metricLine+"\n\n"+traceLine+"\n")
	if code != 0 || !strings.Contains(stdout, "2 lines ok across 1 files, 1 series, 1 events") {
		t.Errorf("exit %d, want 0 with 2 lines counted; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// TestFloorsFailBelow: -min-series and -min-events exit 1 below their
// floors and 0 at them, counting distinct names across all files.
func TestFloorsFailBelow(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-min-series", "1", "-min-events", "1"}, 0},
		{[]string{"-min-series", "2"}, 1},
		{[]string{"-min-events", "2"}, 1},
	} {
		stdout, stderr, code := runObscat(t, append([]string{"-q"}, tc.args...), metricLine+metricLine, traceLine)
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d; stdout:\n%s\nstderr:\n%s", tc.args, code, tc.code, stdout, stderr)
		}
	}
}
