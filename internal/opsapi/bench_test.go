package opsapi

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"umon/internal/collect"
	"umon/internal/flowkey"
	"umon/internal/report"
	"umon/internal/telemetry"
	"umon/internal/wavesketch"
)

// benchFixture builds a daemon-shaped API over a large multi-epoch window
// — 16 epochs × 8 hosts, each report carrying several flows — with one
// emitted multi-flow event to replay. Queries run concurrently against the
// collector's lock-free snapshot plane, as a live daemon's clients would.
func benchFixture(b *testing.B) (*httptest.Server, []flowkey.Key) {
	b.Helper()
	reg := telemetry.NewRegistry()
	stats := collect.NewStats(reg)
	col := collect.New(collect.Config{WindowEpochs: 16, GapNs: 50_000, Stats: stats})

	const epochs, hosts, flowsPerHost = 16, 8, 4
	var flows []flowkey.Key
	for e := uint64(0); e < epochs; e++ {
		for h := 0; h < hosts; h++ {
			s, err := wavesketch.NewBasic(wavesketch.Default(64))
			if err != nil {
				b.Fatal(err)
			}
			for fi := 0; fi < flowsPerHost; fi++ {
				f := key(h*flowsPerHost + fi)
				if e == 0 {
					flows = append(flows, f)
				}
				for w := int64(0); w < 16; w++ {
					s.Update(f, int64(e)*16+w, 1058*(int64(fi)+1))
				}
			}
			s.Seal()
			col.Add(e, report.FromBasic(h, 0, s))
		}
	}
	// One event involving the first few flows, closed by the watermark.
	for i := 0; i < 3; i++ {
		col.AddMirror(mirrorAt(2, 1, int64(1_000+i*500), flows[i]))
	}
	col.AddMirror(mirrorAt(2, 1, 400_000, flows[0]))
	if col.Poll() < 1 {
		b.Fatal("bench fixture emitted no event")
	}

	mux := http.NewServeMux()
	New(Config{Collector: col}).Mount(mux)
	srv := httptest.NewServer(mux)
	b.Cleanup(srv.Close)
	return srv, flows
}

func benchGet(b *testing.B, client *http.Client, url string) {
	resp, err := client.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d from %s", resp.StatusCode, url)
	}
}

// BenchmarkQueryFlowAPI measures sustained /api/query/flow QPS: parallel
// clients each querying a rotating flow over a 32-window span of the live
// window. ns/op is the per-request wall time at full client concurrency.
func BenchmarkQueryFlowAPI(b *testing.B) {
	srv, flows := benchFixture(b)
	urls := make([]string, len(flows))
	for i, f := range flows {
		urls[i] = fmt.Sprintf("%s/api/query/flow?flow=%s&from=0&to=32", srv.URL, url.QueryEscape(f.String()))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		i := 0
		for pb.Next() {
			benchGet(b, client, urls[i%len(urls)])
			i++
		}
	})
}

// BenchmarkReplayAPI measures sustained /api/replay QPS: parallel clients
// replaying the emitted event (3 flows × full margin span) remotely.
func BenchmarkReplayAPI(b *testing.B) {
	srv, _ := benchFixture(b)
	u := srv.URL + "/api/replay?event=0&margin-us=100"
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		for pb.Next() {
			benchGet(b, client, u)
		}
	})
}

// BenchmarkStatusAPI measures the cheap introspection path, the one ops
// dashboards poll.
func BenchmarkStatusAPI(b *testing.B) {
	srv, _ := benchFixture(b)
	u := srv.URL + "/api/status"
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		for pb.Next() {
			benchGet(b, client, u)
		}
	})
}
