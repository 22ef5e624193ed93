package opsapi

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSurfaceGoldens pins the JSON an operator reads from /api/status,
// /api/hosts and /api/trace/epochs over the fixture, whose fake clock makes
// every wall stamp deterministic, byte for byte. Regenerate the goldens
// after an intended change with UMON_UPDATE_GOLDEN=1 and name every changed
// field in CHANGES.md.
func TestSurfaceGoldens(t *testing.T) {
	fx := newFixture(t)
	for _, path := range []string{"/api/status", "/api/hosts", "/api/trace/epochs"} {
		t.Run(strings.TrimPrefix(path, "/api/"), func(t *testing.T) {
			resp, err := http.Get(fx.srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
			}
			golden := filepath.Join("testdata", strings.ReplaceAll(strings.TrimPrefix(path, "/api/"), "/", "_")+".golden")
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
				t.Errorf("GET %s diverged from %s\n--- got ---\n%s--- want ---\n%s", path, golden, got, want)
			}
		})
	}
}
