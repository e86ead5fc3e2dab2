package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadFormatLeavesOutputUntouched proves a usage error is caught before
// the -out file is opened: an existing archive survives byte for byte.
func TestBadFormatLeavesOutputUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "archive.tle")
	want := []byte("an existing archive\n")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-fleet", "paper", "-format", "bin", "-out", path}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), `unknown format "bin"`) {
		t.Fatalf("err = %v, want unknown format", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-out file changed on a usage error: %q", got)
	}
}

// TestSmallFleetTLE generates the small preset as text and checks the output
// is a non-empty 2LE archive.
func TestSmallFleetTLE(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-fleet", "small", "-format", "tle"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) < 2 || len(lines)%2 != 0 {
		t.Fatalf("got %d lines, want a non-empty even count", len(lines))
	}
	if !strings.HasPrefix(lines[0], "1 ") || !strings.HasPrefix(lines[1], "2 ") {
		t.Fatalf("not a 2LE archive: %q / %q", lines[0], lines[1])
	}
	if !strings.Contains(stderr.String(), "simulated archive") {
		t.Errorf("status line missing from stderr: %q", stderr.String())
	}
}
