package cfg

import (
	"math/rand"
	"testing"
)

// drawOp reads one value through the k-th of several rand.Rand methods,
// so readers exercise both the Uint64 and the Int63 paths, rejection
// sampling included.
func drawOp(r *rand.Rand, k int) uint64 {
	switch k % 5 {
	case 0:
		return r.Uint64()
	case 1:
		return uint64(r.Int63())
	case 2:
		return uint64(r.Intn(2))
	case 3:
		return uint64(r.Intn(1000))
	default:
		return uint64(r.Float64() * (1 << 53))
	}
}

// tracked pairs a log reader with a fresh generator on the same seed
// and checks every draw against it.
type tracked struct {
	name       string
	got, fresh *rand.Rand
	n          int
}

func track(l *drawLog, name string, seed int64) *tracked {
	return &tracked{name: name, got: l.newRand(seed), fresh: rand.New(rand.NewSource(seed))}
}

func (tr *tracked) draw(t *testing.T, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		got, want := drawOp(tr.got, tr.n), drawOp(tr.fresh, tr.n)
		if got != want {
			t.Fatalf("reader %s draw %d = %d, fresh source gives %d", tr.name, tr.n, got, want)
		}
		tr.n++
	}
}

func TestDrawLogMatchesFreshSource(t *testing.T) {
	l := &drawLog{}
	a := track(l, "A", 7)
	b := track(l, "B", 7)
	a.draw(t, 3)
	b.draw(t, 10) // past the 3 draws A logged
	a.draw(t, 20) // past B's
	c := track(l, "C", 7)
	c.draw(t, 40) // replays the whole log, then extends it
	if len(l.draws) < 40 {
		t.Fatalf("log holds %d draws after a 40-draw reader", len(l.draws))
	}

	// Switch seed: the log reseeds, and readers of the old seed still in
	// flight stay exact.
	d := track(l, "D", -3)
	d.draw(t, 5)
	if l.seed != -3 {
		t.Fatalf("log seed %d after a reader on -3", l.seed)
	}
	a.draw(t, 5)
	d.draw(t, 5)

	// Come back to the first seed: fresh readers replay from the start,
	// and a reader left mid-stream by the switch carries on exactly.
	e := track(l, "E", 7)
	e.draw(t, 25)
	b.draw(t, 50)
	c.draw(t, 3)

	// Reseeding a reader restarts it on the new stream.
	e.got.Seed(11)
	e.fresh.Seed(11)
	e.draw(t, 8)
}
