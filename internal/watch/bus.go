package watch

import (
	"sync"
	"sync/atomic"
)

// Update kinds carried on the bus.
const (
	UpdateSample = "sample"
	UpdateAlert  = "alert"
	UpdateHealth = "health"
)

// Update is one bus message: an interval sample, a raised alert, or a
// refreshed campaign health snapshot.
type Update struct {
	Type     string          `json:"type"`
	Campaign string          `json:"campaign"`
	Sample   *SamplePayload  `json:"sample,omitempty"`
	Alert    *Alert          `json:"alert,omitempty"`
	Health   *CampaignHealth `json:"health,omitempty"`
}

// SamplePayload mirrors obs.SeriesPoint on the wire without importing
// its JSON shape into every consumer.
type SamplePayload struct {
	TNS      int64  `json:"t_ns"`
	Lane     int    `json:"lane"`
	Interval int    `json:"interval"`
	Vectors  uint64 `json:"vectors"`
	Points   int    `json:"points"`
}

// Sub is one bounded subscription. Receive from C; when the channel
// closes the bus has shut down. Updates the subscriber was too slow to
// take are dropped (never blocking the publisher) and counted.
type Sub struct {
	C       <-chan Update
	ch      chan Update
	id      int
	dropped atomic.Int64
	bus     *Bus
}

// Dropped returns how many updates this subscriber missed.
func (s *Sub) Dropped() int64 { return s.dropped.Load() }

// Close unsubscribes and closes the channel. Idempotent.
func (s *Sub) Close() { s.bus.unsubscribe(s.id) }

// Bus is a bounded, drop-counting fan-out: publishers never block, and
// a slow subscriber loses its own updates without delaying anyone
// else. Close closes every subscriber channel; publishes after Close
// are silent no-ops, so shutdown ordering is safe in either direction.
type Bus struct {
	mu      sync.Mutex
	subs    map[int]*Sub
	nextID  int
	closed  bool
	dropped atomic.Int64
}

// NewBus builds an empty bus.
func NewBus() *Bus {
	return &Bus{subs: map[int]*Sub{}}
}

// Subscribe registers a subscriber with the given channel buffer
// (buf <= 0 selects 64). On a closed bus the returned subscription's
// channel is already closed.
func (b *Bus) Subscribe(buf int) *Sub {
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan Update, buf)
	s := &Sub{C: ch, ch: ch, bus: b}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		close(ch)
		return s
	}
	s.id = b.nextID
	b.nextID++
	b.subs[s.id] = s
	b.mu.Unlock()
	return s
}

func (b *Bus) unsubscribe(id int) {
	b.mu.Lock()
	s, ok := b.subs[id]
	if ok {
		delete(b.subs, id)
	}
	b.mu.Unlock()
	if ok {
		close(s.ch)
	}
}

// Publish fans an update out to every subscriber, dropping (and
// counting) per-subscriber when a buffer is full. No-op after Close.
func (b *Bus) Publish(u Update) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	// Independent per-subscriber sends: delivery order across
	// subscribers carries no meaning.
	//fuzzvet:ordered
	for _, s := range b.subs {
		select {
		case s.ch <- u:
		default:
			s.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
}

// Dropped returns the total updates dropped across all subscribers.
func (b *Bus) Dropped() int64 { return b.dropped.Load() }

// Subscribers returns the live subscription count.
func (b *Bus) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Close closes every subscriber channel and marks the bus closed.
// Idempotent; safe concurrently with Publish and Subscribe.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := b.subs
	b.subs = map[int]*Sub{}
	b.mu.Unlock()
	//fuzzvet:ordered — closing subscriber channels; order irrelevant.
	for _, s := range subs {
		close(s.ch)
	}
}
