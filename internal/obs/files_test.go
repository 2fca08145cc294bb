package obs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// fakeFile is a file of the createSinks test: writes fail once failWrite
// is set, and Close records that it ran.
type fakeFile struct {
	closed    bool
	failWrite error
	failClose error
}

func (f *fakeFile) Write(p []byte) (int, error) {
	if f.failWrite != nil {
		return 0, f.failWrite
	}
	return len(p), nil
}

func (f *fakeFile) Close() error {
	f.closed = true
	return f.failClose
}

func TestCreateSinksClosesEarlierFilesOnError(t *testing.T) {
	opened := map[string]*fakeFile{}
	refused := errors.New("permission denied")
	create := func(path string) (io.WriteCloser, error) {
		if path == "refused" {
			return nil, refused
		}
		f := &fakeFile{}
		opened[path] = f
		return f, nil
	}
	sinks, closeAll, err := createSinks(create, []string{"metrics", "", "trace", "refused", "never"})
	if !errors.Is(err, refused) || sinks != nil || closeAll != nil {
		t.Fatalf("got sinks %v, err %v; want the create error alone", sinks, err)
	}
	if len(opened) != 2 {
		t.Fatalf("created %d files before the failure, want 2 (metrics, trace)", len(opened))
	}
	for name, f := range opened {
		if !f.closed {
			t.Errorf("%s was left open after a later create failed", name)
		}
	}
}

func TestCreateSinksCloseReportsFirstError(t *testing.T) {
	flushErr, closeErr := errors.New("disk full"), errors.New("close failed")
	files := []*fakeFile{{failWrite: flushErr, failClose: closeErr}, {failClose: closeErr}}
	next := 0
	sinks, closeAll, err := createSinks(func(string) (io.WriteCloser, error) {
		next++
		return files[next-1], nil
	}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	sinks[0].WriteLine([]byte(`{"a":1}`)) // buffered; the flush fails
	if err := closeAll(); !errors.Is(err, flushErr) {
		t.Errorf("close returned %v, want the flush error %v", err, flushErr)
	}
	if !files[0].closed || !files[1].closed {
		t.Error("a file was left open after a failed flush")
	}
}

func TestCreateFileSinksRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	sinks, closeAll, err := CreateFileSinks("", path)
	if err != nil {
		t.Fatal(err)
	}
	if sinks[0] != nil {
		t.Error("an empty path produced a sink")
	}
	NewTrace(sinks[1]).Emit(week, "phase")
	if err := closeAll(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"t":604800,"week":1,"event":"phase"}` + "\n"; string(data) != want {
		t.Errorf("file holds %q, want %q", data, want)
	}
	if _, _, err := CreateFileSinks(filepath.Join(t.TempDir(), "missing", "m.ndjson")); err == nil {
		t.Error("creating a file in a missing directory succeeded")
	}
}
