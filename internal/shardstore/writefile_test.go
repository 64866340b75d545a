package shardstore

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// dirNames lists dir's entries.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestWriteFileReplaces: a write lands whole under path with the mode
// asked for, a second replaces it, and nothing else is left beside it.
func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.agent")
	for _, data := range []string{"first", "second, longer"} {
		if err := WriteFile(path, []byte(data), 0o640); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != data {
			t.Fatalf("read %q, %v; want %q", got, err, data)
		}
	}
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o640 {
		t.Fatalf("mode %v, %v; want 0640", info.Mode(), err)
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("dir holds %v, want only a.agent", names)
	}
}

// TestWriteFileFailureLeavesNoTemp: a write that fails — here its
// rename, because path is a directory that is not empty — returns the
// error and leaves no temporary file behind.
func TestWriteFileFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "busy.agent")
	if err := os.MkdirAll(filepath.Join(path, "inside"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("evidence"), 0o644); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "busy.agent" {
		t.Fatalf("dir holds %v, want only busy.agent", names)
	}
}

// TestWriteFileShortWriteLeavesNoTemp: a write cut short by the
// process's file-size limit fails, keeps the old file and leaves no
// temporary file. The limit is set in a child process (this test
// binary, rerun), so no other test writes under it; Go ignores the
// SIGXFSZ the kernel sends, so the write returns EFBIG.
func TestWriteFileShortWriteLeavesNoTemp(t *testing.T) {
	if dir := os.Getenv("SHARDSTORE_WRITEFILE_CHILD"); dir != "" {
		lim := syscall.Rlimit{Cur: 1024, Max: 1024}
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(filepath.Join(dir, "big.agent"), bytes.Repeat([]byte("x"), 4096), 0o644); err == nil {
			t.Fatal("a 4 KiB write under a 1 KiB file-size limit succeeded")
		}
		return
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "big.agent")
	if err := WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestWriteFileShortWriteLeavesNoTemp$")
	cmd.Env = append(os.Environ(), "SHARDSTORE_WRITEFILE_CHILD="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
		t.Fatalf("read %q, %v; want the old file", got, err)
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("dir holds %v, want only big.agent", names)
	}
}
