package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Checkpoint persists completed sweep cells as JSON lines so an interrupted
// sweep resumes by skipping (scenario, rep) pairs that already ran. The file
// is append-only: each completed cell is flushed to disk the moment it
// finishes, so a kill at any point loses at most in-flight runs.
//
// Resume safety: the runner only reuses a recorded cell when its derived
// seed and work scale match the current sweep, so a checkpoint from a sweep
// with different parameters is ignored rather than silently mixed in.
type Checkpoint struct {
	mu    sync.Mutex
	done  map[Key]RunResult
	f     *os.File
	w     *bufio.Writer
	lines int   // cells appended since open (drives the periodic fsync)
	err   error // first write error, reported at Close
}

// ckptSyncEvery is the fsync cadence: every N appended cells the file is
// synced to stable storage, so a machine crash (not just a process kill,
// which the per-cell Flush already covers) loses at most one window of
// cells. Close syncs unconditionally.
const ckptSyncEvery = 32

// OpenCheckpoint opens (creating if needed) the checkpoint at path and loads
// any cells a previous sweep recorded. With resume=false an existing file is
// truncated: the sweep starts from scratch.
func OpenCheckpoint(path string, resume bool) (*Checkpoint, error) {
	c := &Checkpoint{done: make(map[Key]RunResult)}
	var data []byte
	if resume {
		var err error
		if data, err = os.ReadFile(path); err == nil {
			// Parse line by line and skip torn lines rather than stopping:
			// a sweep killed mid-write leaves one at the end of the file.
			// It is ended with a newline below, before anything is
			// appended, so the cells this sweep records land on lines of
			// their own instead of being glued onto the fragment.
			for _, line := range bytes.Split(data, []byte("\n")) {
				if len(bytes.TrimSpace(line)) == 0 {
					continue
				}
				var res RunResult
				if err := json.Unmarshal(line, &res); err != nil {
					continue
				}
				if res.Failed {
					// A failed cell in the file (written by hand or by an
					// older build — Record refuses them) must be re-run on
					// resume, not replayed as a result.
					continue
				}
				c.done[Key{Scenario: res.Scenario, Rep: res.Rep}] = res
			}
		} else if !os.IsNotExist(err) {
			return nil, fmt.Errorf("experiment: read checkpoint: %w", err)
		}
	}
	flags := os.O_CREATE | os.O_WRONLY
	if resume {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiment: open checkpoint: %w", err)
	}
	if n := len(data); n > 0 && data[n-1] != '\n' {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, fmt.Errorf("experiment: end torn checkpoint line: %w", err)
		}
	}
	c.f = f
	c.w = bufio.NewWriter(f)
	return c, nil
}

// Len returns the number of cells loaded or recorded so far.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Lookup returns the recorded result for a cell, if any.
func (c *Checkpoint) Lookup(k Key) (RunResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.done[k]
	return res, ok
}

// Record persists one freshly completed cell and flushes it to disk.
// Failed cells are dropped: a resumed sweep must retry them, so nothing
// may mark them done. Safe for concurrent use by the runner's workers.
func (c *Checkpoint) Record(res RunResult) {
	if res.Failed {
		return
	}
	line, err := json.Marshal(res)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done[Key{Scenario: res.Scenario, Rep: res.Rep}] = res
	if err == nil {
		_, err = c.w.Write(append(line, '\n'))
	}
	if err == nil {
		err = c.w.Flush()
	}
	if err == nil {
		c.lines++
		if c.lines%ckptSyncEvery == 0 {
			err = c.f.Sync()
		}
	}
	if err != nil && c.err == nil {
		c.err = err
	}
}

// Close flushes and closes the checkpoint file, returning the first error
// encountered while recording, if any.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return c.err
	}
	ferr := c.w.Flush()
	serr := c.f.Sync()
	cerr := c.f.Close()
	c.f = nil
	switch {
	case c.err != nil:
		return c.err
	case ferr != nil:
		return ferr
	case serr != nil:
		return serr
	default:
		return cerr
	}
}
