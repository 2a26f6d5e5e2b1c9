package archive

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// This file is the store's write seam: the only code in internal/archive
// and internal/query that creates, renames, removes or truncates a file.
// A whole file — a day file, timeline.idx, its .agg sidecar — is
// committed by CommitFile; index.jsonl, the one file that is appended
// to, is opened, repaired and appended here.

// CommitFile replaces the file at path with the bytes write produces.
// They go through a buffer into a tmp file next to path, which is
// flushed, closed and renamed over path, so path holds its earlier bytes
// until the whole new file appears at once. On any failure the tmp file
// is removed, path is left as it was and the error is returned; an error
// from write comes back unwrapped.
func CommitFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("archive: committing %s: %w", filepath.Base(path), err)
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	err = bw.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("archive: committing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// openIndexLog opens dir's index.jsonl for appending, creating it when
// absent. A resuming writer passes the archive it replayed: Open skipped
// a torn final line (an append that died mid-write), which O_APPEND
// would glue the next record onto, and the archive would stop opening.
// The log is cut back to the records Open accepted, and a last record
// that lost only its newline is terminated.
func openIndexLog(dir string, resume *Archive) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, IndexFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("archive: opening index: %w", err)
	}
	if resume == nil {
		return f, nil
	}
	if err := f.Truncate(resume.indexEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("archive: truncating torn index tail: %w", err)
	}
	if resume.indexOpen {
		if _, err := f.Write([]byte("\n")); err != nil {
			f.Close()
			return nil, fmt.Errorf("archive: terminating index: %w", err)
		}
	}
	return f, nil
}

// appendIndex writes rec as the next line of the index log: the moment
// the day it names becomes part of the archive.
func appendIndex(log *os.File, rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := log.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("archive: appending index record: %w", err)
	}
	return nil
}
