package uvm

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/elab"
	"repro/internal/logic"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/simc"
)

// Driver translates sequence items into DUV pin assignments and clocks
// the design (Figure 2, block 4).
type Driver struct {
	BaseComponent
	Sim   sim.DUV
	Clock int // clock signal index, -1 for purely combinational DUVs
	// ports lists the input ports sorted by name, the order Apply
	// drives them in.
	ports []*elab.Signal
}

// NewDriver binds a driver to a DUV backend. Field-to-port mapping is
// by name against the design's input ports.
func NewDriver(name string, s sim.DUV, clock int) *Driver {
	d := &Driver{
		BaseComponent: NewBaseComponent(name),
		Sim:           s,
		Clock:         clock,
		ports:         slices.Clone(s.Design().InputSignals()),
	}
	slices.SortFunc(d.ports, func(a, b *elab.Signal) int { return strings.Compare(a.Name, b.Name) })
	return d
}

// Apply drives one item: sets every mapped field, then runs Hold clock
// cycles (or a single settle when the DUV has no clock).
//
// Fields are applied in sorted name order: each Set re-evaluates the
// dependent combinational cone, and the transient states seen mid-apply
// feed the branch tracer, so the order fixes the coverage event stream
// (and with it the whole campaign). The item's name-sorted fields are
// merged against the name-sorted ports; a field matching no port fails
// the item once every field sorted before it has been applied. An item
// whose fields are not sorted by unique name is rejected before any is
// applied.
func (d *Driver) Apply(it *Item) error {
	for i := 1; i < len(it.Fields); i++ {
		if prev, f := it.Fields[i-1].Name, it.Fields[i].Name; prev >= f {
			return fmt.Errorf("uvm: item fields not sorted by unique name: %q before %q", prev, f)
		}
	}
	p := 0
	for _, f := range it.Fields {
		for p < len(d.ports) && d.ports[p].Name < f.Name {
			p++
		}
		if p == len(d.ports) || d.ports[p].Name != f.Name {
			return fmt.Errorf("uvm: item field %q does not match an input port", f.Name)
		}
		d.Sim.Set(d.ports[p].Index, f.Val.Resize(d.ports[p].Width))
	}
	if err := d.Sim.Settle(); err != nil {
		return err
	}
	hold := it.Hold
	if hold <= 0 {
		hold = 1
	}
	if d.Clock < 0 {
		d.Sim.AdvanceCycle()
		return nil
	}
	for i := 0; i < hold; i++ {
		if err := d.Sim.Tick(d.Clock); err != nil {
			return err
		}
	}
	return nil
}

// Monitor samples DUV outputs each cycle and owns the property checker
// (Figure 2, block 5; §4.9's violation detection).
type Monitor struct {
	BaseComponent
	Sim     sim.DUV
	Checker *props.Checker
	// Observations holds the most recent output sample per port.
	Observations map[string]logic.BV
	board        *Scoreboard
	outs         []*elab.Signal
	last         []logic.BV // last sampled value per outs entry
}

// NewMonitor builds a monitor with an optional property checker.
func NewMonitor(name string, s sim.DUV, chk *props.Checker) *Monitor {
	m := &Monitor{
		BaseComponent: NewBaseComponent(name),
		Sim:           s,
		Checker:       chk,
		Observations:  map[string]logic.BV{},
		outs:          s.Design().OutputSignals(),
	}
	m.last = make([]logic.BV, len(m.outs))
	if chk != nil {
		chk.Bind(s)
	}
	s.OnCycle(func(sim.DUV) { m.sample() })
	return m
}

// sample records every output, reusing the last value while a port's
// words are unchanged.
func (m *Monitor) sample() {
	for i, out := range m.outs {
		v := m.last[i]
		if !sameWords(m.Sim, out.Index, v) {
			v = m.Sim.Get(out.Index)
			m.last[i] = v
			m.Observations[out.Name] = v
		}
		if m.board != nil {
			m.board.Observe(out.Name, m.Sim.Cycle(), v)
		}
	}
}

// sameWords reports whether signal sig currently holds exactly v.
func sameWords(s sim.DUV, sig int, v logic.BV) bool {
	a, b := s.Words(sig)
	va, vb := v.Words()
	if len(va) != len(a) {
		return false
	}
	for i := range a {
		if a[i] != va[i] || b[i] != vb[i] {
			return false
		}
	}
	return true
}

// Violations returns property violations recorded so far.
func (m *Monitor) Violations() []props.Violation {
	if m.Checker == nil {
		return nil
	}
	return m.Checker.Violations()
}

// Observation is one recorded output sample.
type Observation struct {
	Signal string
	Cycle  uint64
	Value  logic.BV
}

// Scoreboard accumulates monitor observations and optionally compares
// them against a golden reference model (§5.5.3's extension to
// manufacturing-fault detection).
type Scoreboard struct {
	BaseComponent
	Observations []Observation
	// Golden, when set, predicts the expected value of a signal at a
	// cycle; mismatches (on fully defined values) are recorded.
	Golden     func(signal string, cycle uint64) (logic.BV, bool)
	Mismatches []Observation
	// Cap bounds retained observations (ring semantics).
	Cap int
	// buf backs Observations once it is full: the window slides along
	// buf and moves back to its front on reaching the end, so a full
	// scoreboard records without reallocating.
	buf []Observation
}

// NewScoreboard builds an empty scoreboard.
func NewScoreboard(name string) *Scoreboard {
	return &Scoreboard{BaseComponent: NewBaseComponent(name), Cap: 4096}
}

// Observe records one output sample.
func (s *Scoreboard) Observe(signal string, cycle uint64, v logic.BV) {
	if s.Cap > 0 && len(s.Observations) >= s.Cap {
		keep := s.Observations[1:]
		if len(keep) == cap(keep) {
			if len(s.buf) <= len(keep) {
				s.buf = make([]Observation, 2*len(keep)+1)
			}
			keep = s.buf[:copy(s.buf, keep)]
		}
		s.Observations = keep
	}
	s.Observations = append(s.Observations, Observation{Signal: signal, Cycle: cycle, Value: v})
	if s.Golden != nil {
		want, ok := s.Golden(signal, cycle)
		if ok && v.IsFullyDefined() && want.IsFullyDefined() && !v.Eq4(want) {
			s.Mismatches = append(s.Mismatches, Observation{Signal: signal, Cycle: cycle, Value: v})
		}
	}
}

// Agent bundles sequencer, driver and monitor (Figure 2, blocks 3-5).
type Agent struct {
	BaseComponent
	Sequencer *Sequencer
	Driver    *Driver
	Monitor   *Monitor
}

// Env is the UVM testbench environment (Figure 2, blocks 1-2): it
// connects the agent and scoreboard around a simulated DUV.
type Env struct {
	BaseComponent
	Sim         sim.DUV
	Agent       *Agent
	Scoreboard  *Scoreboard
	ClockInfo   sim.ResetInfo
	connected   bool
	resetCycles int
}

// EnvConfig parameterizes environment construction.
type EnvConfig struct {
	Seed int64
	// Properties to monitor.
	Properties []*props.Property
	// ResetCycles applied by Reset (default 2).
	ResetCycles int
	// SimBackend selects the DUV implementation: "interp" (default,
	// the event-driven four-state interpreter) or "compiled" (the
	// internal/simc closure-compiled backend). Both are observationally
	// identical, so campaign trajectories do not depend on the choice.
	SimBackend string
}

// NewBackend constructs a DUV for the design using the named backend
// ("", "interp", or "compiled").
func NewBackend(d *elab.Design, backend string) (sim.DUV, error) {
	switch backend {
	case "", "interp":
		return sim.New(d)
	case "compiled":
		return simc.New(d)
	default:
		return nil, fmt.Errorf("uvm: unknown sim backend %q (want interp or compiled)", backend)
	}
}

// NewEnv builds the standard environment around a design: detects the
// clock/reset tree (§4.3), builds the sequencer over the remaining
// input ports (§4.2), and wires driver, monitor and scoreboard.
func NewEnv(d *elab.Design, cfg EnvConfig) (*Env, error) {
	s, err := NewBackend(d, cfg.SimBackend)
	if err != nil {
		return nil, err
	}
	info := sim.DetectClockReset(d)
	exclude := map[string]bool{}
	if info.Clock >= 0 {
		exclude[d.Signals[info.Clock].Name] = true
	}
	if info.Reset >= 0 {
		exclude[d.Signals[info.Reset].Name] = true
	}
	env := &Env{
		BaseComponent: NewBaseComponent("env"),
		Sim:           s,
		ClockInfo:     info,
	}
	var chk *props.Checker
	if len(cfg.Properties) > 0 {
		chk = props.NewChecker(cfg.Properties...)
	}
	agent := &Agent{
		BaseComponent: NewBaseComponent("agent"),
		Sequencer:     SequencerForDesign(d, exclude, cfg.Seed),
		Driver:        NewDriver("driver", s, info.Clock),
		Monitor:       NewMonitor("monitor", s, chk),
	}
	agent.AddChild(agent.Sequencer)
	agent.AddChild(agent.Driver)
	agent.AddChild(agent.Monitor)
	env.Agent = agent
	env.Scoreboard = NewScoreboard("scoreboard")
	agent.Monitor.board = env.Scoreboard
	env.AddChild(agent)
	env.AddChild(env.Scoreboard)
	if err := RunPhases(env); err != nil {
		return nil, err
	}
	env.connected = true
	env.resetCycles = cfg.ResetCycles
	if env.resetCycles == 0 {
		env.resetCycles = 2
	}
	return env, nil
}

// Reset applies the reset sequence, leaving the DUV in its deterministic
// start state (Algorithm 1's deterministic test execution).
func (e *Env) Reset() error {
	return e.Sim.ApplyReset(e.ClockInfo, e.resetCycles)
}

// Step generates, drives and checks one item, returning it.
func (e *Env) Step() (*Item, error) {
	it := e.Agent.Sequencer.NextItem()
	if err := e.Agent.Driver.Apply(it); err != nil {
		return nil, err
	}
	return it, nil
}

// Violations exposes the monitor's recorded property violations.
func (e *Env) Violations() []props.Violation { return e.Agent.Monitor.Violations() }
