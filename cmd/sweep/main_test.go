package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run the command in a child process: with
// SWEEP_TEST_ARGS set, the test binary is the sweep command with those
// arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SWEEP_TEST_ARGS"); ok {
		os.Args = append([]string{"sweep"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sweep runs the command with args in a child process and returns its
// stderr and exit code.
func sweep(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "SWEEP_TEST_ARGS="+strings.Join(args, " "))
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

// TestCorunRejectsFlagsItCannotHonour: -corun refuses every flag a co-run
// cannot honour, naming each one given, before any cell runs; the flags'
// defaults never trigger it, and a co-run sweep resumes from its own
// checkpoint to the same gridsweep.json.
func TestCorunRejectsFlagsItCannotHonour(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "corun.ckpt.jsonl")
	rejected := []string{"-fork", "-fork-workers", "-hours", "-scheduler", "-validator",
		"-adaptive-streak", "-maintenance-hours", "-outage-rate", "-outage-hours", "-upload-loss",
		"-churn-weekly", "-fault-seed"}
	stderr, code := sweep(t, "-corun", "-reps", "1", "-checkpoint", ckpt,
		"-fork", "-fork-workers", "2", "-hours", "4", "-scheduler", "lifo",
		"-validator", "adaptive", "-adaptive-streak", "5", "-maintenance-hours", "1",
		"-outage-rate", "1", "-outage-hours", "2", "-upload-loss", "0.1", "-churn-weekly", "0.1",
		"-fault-seed", "3")
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr)
	}
	for _, f := range rejected {
		if !strings.Contains(stderr, f+",") && !strings.Contains(stderr, f+":") {
			t.Errorf("error does not name %s:\n%s", f, stderr)
		}
	}
	if strings.Contains(stderr, "-reps") || strings.Contains(stderr, "-checkpoint,") {
		t.Errorf("error names a flag -corun honours:\n%s", stderr)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("a rejected co-run touched the checkpoint (stat err %v)", err)
	}

	args := []string{"-corun", "-scenarios", "two-project-equal", "-reps", "1", "-scale", "0.005", "-q",
		"-checkpoint", ckpt}
	if stderr, code := sweep(t, append(args, "-out", filepath.Join(dir, "a"))...); code != 0 {
		t.Fatalf("co-run sweep at default flags exited %d:\n%s", code, stderr)
	}
	stderr, code = sweep(t, append(args, "-resume", "-out", filepath.Join(dir, "b"))...)
	if code != 0 || !strings.Contains(stderr, "(1 resumed)") {
		t.Fatalf("resumed co-run sweep exited %d without resuming its cell:\n%s", code, stderr)
	}
	a, errA := os.ReadFile(filepath.Join(dir, "a", "gridsweep.json"))
	b, errB := os.ReadFile(filepath.Join(dir, "b", "gridsweep.json"))
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("resumed gridsweep.json differs from the first run's (read errors %v, %v)", errA, errB)
	}
}

// TestSampleEveryOutOfRangeExitsOne: a sampling cadence below one sim
// second (the sampler would tick ~4e16 times) or a negative one is refused
// with exit 1, before the checkpoint or any other file is opened.
func TestSampleEveryOutOfRangeExitsOne(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "cadence.ckpt.jsonl")
	metrics := filepath.Join(dir, "m.ndjson")
	for _, s := range []string{"1e-9", "-1"} {
		stderr, code := sweep(t, "-scenarios", "baseline", "-reps", "1", "-scale", "0.005", "-q",
			"-sample-every", s, "-metrics", metrics, "-checkpoint", ckpt)
		if code != 1 || !strings.Contains(stderr, "-sample-every") {
			t.Fatalf("-sample-every %s: exit code %d, want 1 naming -sample-every; stderr:\n%s", s, code, stderr)
		}
	}
	for _, f := range []string{ckpt, metrics} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Fatalf("a rejected sweep touched %s (stat err %v)", f, err)
		}
	}
}

// Golden sha256 hashes of the files both sweep front ends write, recorded
// at one worker and 0.005 scale before the co-run front end was folded into
// the campaign one: the co-run catalog's gridsweep.json, checkpoint,
// metrics NDJSON (without the wall-clock sweep-telemetry line) and trace
// NDJSON, and a three-scenario campaign sweep's sweep.json, sweep.csv and
// checkpoint. Like the report goldens they are tied to the generator's
// float stream (go1.24 linux/amd64 at record time).
var goldenSweepFiles = map[string]map[string]string{
	"corun": {
		"gridsweep.json": "6959a81a76f43f92da30081964e7c60fb25a4a418c15904c8865c187e9bc7d7c",
		"ckpt.jsonl":     "8338936420dd8328e46a4f03186ce691c7ef2ae6c3a5adfbebd79ab6fd945139",
		"metrics.ndjson": "49e4cfff8daada8407afcdb2de1763402bc8295a0e521b3e90dc1dd6edff2550",
		"trace.ndjson":   "b655d9df6037c2ccbf861dcd0f93cef25a866d4b8139bdf49887a22029116026",
	},
	"campaign": {
		"sweep.json": "08ff98c0966ca5cf09667dcf8935f3b99352425899465a864b1956c8e04519c6",
		"sweep.csv":  "e297d7269d276fc227791d9f2e36b7543b12fe2ccd68d4216b6ebd2f6663a84e",
		"ckpt.jsonl": "fc324f5feae76d69fedca3c1cc54386d81755ac6bf5fb866435c98e6e6f945c8",
	},
}

// TestGoldenSweepFiles runs both front ends in a child process and pins the
// bytes of every file they write. The closing sweep-telemetry line carries
// wall-clock figures, so it is dropped from the metrics before hashing.
func TestGoldenSweepFiles(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"corun", []string{"-corun", "-metrics", "metrics.ndjson", "-trace", "trace.ndjson"}},
		{"campaign", []string{"-scenarios", "baseline,quorum-2,weekly-maintenance"}},
	} {
		dir := t.TempDir()
		args := append(c.args, "-scale", "0.005", "-reps", "1", "-workers", "1", "-q",
			"-checkpoint", "ckpt.jsonl", "-out", ".")
		for i, a := range args {
			if strings.HasSuffix(a, ".ndjson") || a == "ckpt.jsonl" || a == "." {
				args[i] = filepath.Join(dir, a)
			}
		}
		if stderr, code := sweep(t, args...); code != 0 {
			t.Fatalf("%s sweep exited %d:\n%s", c.name, code, stderr)
		}
		for file, want := range goldenSweepFiles[c.name] {
			data, err := os.ReadFile(filepath.Join(dir, file))
			if err != nil {
				t.Fatal(err)
			}
			if file == "metrics.ndjson" {
				var kept []byte
				for _, line := range bytes.SplitAfter(data, []byte("\n")) {
					if !bytes.Contains(line, []byte(`"sweep-telemetry"`)) {
						kept = append(kept, line...)
					}
				}
				data = kept
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s %s (%d bytes) hash = %s, want golden %s", c.name, file, len(data), got, want)
			}
		}
	}
}
