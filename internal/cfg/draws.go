package cfg

import "math/rand"

// drawLog hands out seeded random streams without re-seeding a source
// per solve. The engine dispatches about a dozen solves per guidance
// invocation under one seed, and seeding a math/rand source costs about
// as much as one of those small solves (re-seeding a reused source
// saves its allocation but not its time). The log therefore seeds once
// per seed change and records the draws made so far; every reader
// replays the record from its start and extends it from the source when
// it reads past the end. Each reader sees exactly the stream of
// rand.New(rand.NewSource(seed)).
type drawLog struct {
	seed  int64
	src   rand.Source64
	draws []uint64
}

// reseed points the log at seed's stream, dropping the old record.
func (l *drawLog) reseed(seed int64) {
	if l.src == nil {
		l.src = rand.NewSource(seed).(rand.Source64)
	} else {
		l.src.Seed(seed)
	}
	l.seed = seed
	l.draws = l.draws[:0]
}

// newRand returns a generator replaying seed's stream from its start.
func (l *drawLog) newRand(seed int64) *rand.Rand {
	if l.src == nil || l.seed != seed {
		l.reseed(seed)
	}
	return rand.New(&drawReader{log: l, seed: seed})
}

// drawReader is one replaying reader of a drawLog.
type drawReader struct {
	log  *drawLog
	seed int64
	pos  int
}

// Uint64 returns the reader's next draw. A reader whose shared log has
// since moved to another seed continues on a private log of its own
// seed, so it stays exact (at the cost of one seeding).
func (r *drawReader) Uint64() uint64 {
	l := r.log
	if l.seed != r.seed {
		l = &drawLog{}
		l.reseed(r.seed)
		r.log = l
	}
	for len(l.draws) <= r.pos {
		l.draws = append(l.draws, l.src.Uint64())
	}
	v := l.draws[r.pos]
	r.pos++
	return v
}

// Int63 masks one draw, as math/rand's own source does.
func (r *drawReader) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

// Seed restarts the reader on seed's stream.
func (r *drawReader) Seed(seed int64) { r.seed, r.pos = seed, 0 }

// newRand returns the graph's seeded generator for one solve.
func (g *Graph) newRand(seed int64) *rand.Rand {
	if g.draws == nil {
		g.draws = &drawLog{}
	}
	return g.draws.newRand(seed)
}
