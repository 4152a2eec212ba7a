package cov

import (
	"testing"
)

// snapshotCounts digests a monitor's set sizes for equality checks.
func snapshotCounts(c *CFGCov) [4]int {
	nodes, _ := c.NodeCoverage()
	edges, _ := c.EdgeCoverage()
	return [4]int{c.Points(), nodes, edges, len(c.Tuples)}
}

// TestCFGCovMergeIdempotent pins the parallel-merge contract: merging
// a monitor into itself (or re-publishing the same coverage) must not
// change anything — an edge covered both locally and globally counts
// exactly once.
func TestCFGCovMergeIdempotent(t *testing.T) {
	f := setup(t)
	c := NewCFGCov(f.g)
	Attach(f.s, c)
	drive(t, f, 1, 2, 0, 0, 1, 3, 0)

	before := snapshotCounts(c)
	if before[0] == 0 {
		t.Fatal("fixture produced no coverage")
	}
	c.Merge(c)
	if after := snapshotCounts(c); after != before {
		t.Fatalf("merge(a, a) changed coverage: %v -> %v", before, after)
	}

	// Repeated publishes of the same monitor into a global view are a
	// no-op after the first.
	global := NewCFGCov(f.g)
	global.Merge(c)
	first := snapshotCounts(global)
	if first != before {
		t.Fatalf("merge into empty lost coverage: %v != %v", first, before)
	}
	global.Merge(c)
	if again := snapshotCounts(global); again != first {
		t.Fatalf("second publish double-counted: %v -> %v", first, again)
	}
}

// TestCFGCovMergeUnion checks the merge is a true set union: distinct
// local coverage combines without double-counting the overlap, and the
// result is order-independent.
func TestCFGCovMergeUnion(t *testing.T) {
	fa := setup(t)
	a := NewCFGCov(fa.g)
	Attach(fa.s, a)
	drive(t, fa, 1, 2, 0) // path 0->1->2->3

	fb := setup(t)
	b := NewCFGCov(fb.g)
	Attach(fb.s, b)
	drive(t, fb, 1, 3, 0) // path 0->1->3->0 (overlaps 0->1)

	union := func(first, second *CFGCov) [4]int {
		m := NewCFGCov(fa.g)
		m.Merge(first)
		m.Merge(second)
		return snapshotCounts(m)
	}
	ab, ba := union(a, b), union(b, a)
	if ab != ba {
		t.Fatalf("merge is order-dependent: a,b=%v b,a=%v", ab, ba)
	}
	if ab[0] < snapshotCounts(a)[0] || ab[0] < snapshotCounts(b)[0] {
		t.Fatalf("union lost points: %v vs a=%v b=%v", ab, snapshotCounts(a), snapshotCounts(b))
	}
	sum := snapshotCounts(a)[0] + snapshotCounts(b)[0]
	if ab[0] >= sum {
		t.Fatalf("overlapping coverage double-counted: union=%d, sum=%d (paths share edges)", ab[0], sum)
	}
}
