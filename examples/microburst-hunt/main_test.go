package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestStdout pins the example's output byte for byte. Regenerate the golden
// after an intended change with UMON_UPDATE_GOLDEN=1.
func TestStdout(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	main()
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "stdout.golden")
	if os.Getenv("UMON_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UMON_UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout diverged from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
