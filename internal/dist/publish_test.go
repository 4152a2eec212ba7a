package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cfg"
	"repro/internal/cov"
)

// TestQuietIntervalShipsNothing pins the publisher's quiet-interval
// skip: a Sync with no new coverage point and no vector progress
// leaves no dirty delta (so no batch goes out), and a point that
// appears afterwards still ships, alone.
func TestQuietIntervalShipsNothing(t *testing.T) {
	var mu sync.Mutex
	var got []BatchRequest
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decode batch: %v", err)
		}
		mu.Lock()
		got = append(got, req)
		mu.Unlock()
		_ = json.NewEncoder(w).Encode(BatchResponse{OK: true, AckSeq: req.Publishes[0].Seq})
	}))
	defer srv.Close()

	// The flush period is an hour: only the explicit flush calls below
	// ship anything.
	p := newBatchPublisher(context.Background(), NewClient(strings.TrimPrefix(srv.URL, "http://"), 1),
		"", "w", 0, time.Hour)
	defer p.close()
	cv := cov.NewCFGCov(&cfg.Partition{Graphs: []*cfg.Graph{{}}})
	cv.NodesSeen[0][3] = true
	batches := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}

	p.enqueuePublish(cv, 50)
	p.flush()
	if n := batches(); n != 1 {
		t.Fatalf("first interval shipped %d batches, want 1", n)
	}

	p.enqueuePublish(cv, 50) // quiet: same points, same vectors
	p.mu.Lock()
	dirty, prog := p.dirty, p.prog
	p.mu.Unlock()
	if dirty || prog {
		t.Fatalf("quiet interval left a pending delta (dirty %v, progress %v)", dirty, prog)
	}
	p.flush()
	if n := batches(); n != 1 {
		t.Fatalf("quiet interval shipped a batch (%d total)", n)
	}

	cv.EdgesSeen[0][7] = true
	p.enqueuePublish(cv, 50)
	p.flush()
	if n := batches(); n != 2 {
		t.Fatalf("new point shipped %d batches in all, want 2", n)
	}
	delta := got[1].Publishes[0].Delta
	if !reflect.DeepEqual(delta.Nodes, [][]int{{}}) || !reflect.DeepEqual(delta.Edges, [][]int{{7}}) {
		t.Fatalf("second delta = nodes %v edges %v, want only edge 7", delta.Nodes, delta.Edges)
	}
}
