// Package cli holds the suite's command-line entry conventions: every
// command's main is a thin wrapper over a run() error function, so error
// paths return through normal control flow — deferred cleanup (spool
// tail flushes, temp files, HTTP drains) runs — and the process exit
// code is assigned in exactly one place. Exit codes follow cmd/collect:
// 2 for usage errors, 1 for runtime failures.
package cli

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// UsageError marks a command-line usage problem; Main exits 2 for it
// (the same code flag.ExitOnError uses) instead of the runtime 1.
type UsageError struct{ Err error }

func (e UsageError) Error() string { return e.Err.Error() }
func (e UsageError) Unwrap() error { return e.Err }

// Usagef builds a UsageError.
func Usagef(format string, args ...any) error {
	return UsageError{Err: fmt.Errorf(format, args...)}
}

// Main runs fn and exits the process with the conventional code: 0 on
// nil, 2 for usage errors, 1 otherwise. The error is printed to stderr
// prefixed with the command name. It must be the last call in main —
// nothing after it runs on failure — and fn must do its own cleanup via
// defer, which is the point: returning an error unwinds fn normally.
func Main(name string, fn func() error) {
	err := fn()
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	var ue UsageError
	if errors.As(err, &ue) {
		os.Exit(2)
	}
	os.Exit(1)
}

// WriteOutput is the commands' -o FILE convention: render writes the
// output, which reaches stdout through a buffer when path is empty.
// Otherwise render writes into memory and the bytes reach path through a
// same-directory temp file and rename, so path is either the complete
// new output or untouched: a failure partway (bad member name, missing
// provenance, I/O error) never leaves a truncated file or clobbers a
// previous one.
func WriteOutput(path string, render func(io.Writer) error) (err error) {
	if path == "" {
		w := bufio.NewWriter(os.Stdout)
		if err := render(w); err != nil {
			w.Flush() // stdout is a stream: show what was rendered
			return err
		}
		return w.Flush()
	}
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return err
	}
	// CreateTemp's 0600 would hide the output from other users; give it
	// the mode os.Create yields under the usual umask.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
