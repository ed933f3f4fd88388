package cli

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteOutputFailure is the regression test for the truncated
// -o FILE bug: a rendering failure partway through (after some output
// was already produced) must leave the target file exactly as it was —
// previous contents intact, no partial report, no stray temp files.
func TestWriteOutputFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.txt")
	const prev = "previous good report\n"
	if err := os.WriteFile(path, []byte(prev), 0o644); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("bad member name")
	err := WriteOutput(path, func(w io.Writer) error {
		io.WriteString(w, "half a report...")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the render error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != prev {
		t.Errorf("target file changed on failed render:\n%q", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("stray temp file left behind: %s", e.Name())
		}
	}
}

// TestWriteOutputSuccess checks the happy path publishes the full
// rendered bytes with the usual file mode and cleans up its temp file.
func TestWriteOutputSuccess(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.txt")
	const want = "==== functions ====\nall of it\n"
	if err := WriteOutput(path, func(w io.Writer) error {
		_, err := io.WriteString(w, want)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("got %q, want %q", got, want)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Errorf("report mode %v, want 0644", st.Mode().Perm())
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Errorf("directory has %d entries, want just the report", len(ents))
	}
}
