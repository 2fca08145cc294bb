package obs

import (
	"bufio"
	"io"
	"os"
)

// CreateFileSinks creates one NDJSON file per path, each behind a 64 KiB
// buffer and a Sink of its own: the -metrics and -trace outputs of the
// CLIs. sinks[i] belongs to paths[i]; an empty path yields a nil sink, so
// that output stays off. If a file cannot be created, every file created
// before it is closed and the error is returned. The returned close
// flushes and closes every file and returns the first of the flush, close
// and sink write errors; it is a no-op when no path was set.
func CreateFileSinks(paths ...string) (sinks []*Sink, close func() error, err error) {
	return createSinks(func(path string) (io.WriteCloser, error) { return os.Create(path) }, paths)
}

// createSinks is CreateFileSinks over any file constructor, so a test can
// watch which files are closed.
func createSinks(create func(string) (io.WriteCloser, error), paths []string) ([]*Sink, func() error, error) {
	type file struct {
		f    io.WriteCloser
		buf  *bufio.Writer
		sink *Sink
	}
	var files []file
	closeAll := func() error {
		var first error
		for _, f := range files {
			for _, err := range []error{f.buf.Flush(), f.f.Close(), f.sink.Err()} {
				if err != nil && first == nil {
					first = err
				}
			}
		}
		return first
	}
	sinks := make([]*Sink, len(paths))
	for i, path := range paths {
		if path == "" {
			continue
		}
		f, err := create(path)
		if err != nil {
			closeAll() // nothing was written yet; the create error is the one to report
			return nil, nil, err
		}
		buf := bufio.NewWriterSize(f, 1<<16)
		sinks[i] = NewSink(buf)
		files = append(files, file{f, buf, sinks[i]})
	}
	return sinks, closeAll, nil
}
