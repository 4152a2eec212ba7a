package diff

import (
	"fmt"
	"math/rand"

	"repro/internal/elab"
	"repro/internal/logic"
	"repro/internal/sim"
	"repro/internal/simc"
)

// branchEvent is one recorded (branch, arm) tracer event.
type branchEvent struct{ ID, Arm int }

// recorder captures the branch-event stream of one backend.
type recorder struct{ events []branchEvent }

func (r *recorder) Branch(id, arm int) { r.events = append(r.events, branchEvent{id, arm}) }

// Options tunes a lockstep run.
type Options struct {
	Cycles int
	// XZEveryN injects X/Z bits into roughly one in N input vectors
	// (0 disables injection).
	XZEveryN int
	// CompareEvents also demands identical branch-event streams.
	CompareEvents bool
}

// Run drives the interpreter and the compiled machine in lockstep over
// the design with seeded random stimulus and returns the first
// divergence as an error (nil when the backends agree on every cycle).
func Run(d *elab.Design, seed int64, opts Options) error {
	rng := rand.New(rand.NewSource(seed))
	if opts.Cycles == 0 {
		opts.Cycles = 64
	}

	si, err := sim.New(d)
	if err != nil {
		return fmt.Errorf("interp new: %w", err)
	}
	mc, err := simc.New(d)
	if err != nil {
		return fmt.Errorf("compiled new: %w", err)
	}
	recI, recC := &recorder{}, &recorder{}
	if opts.CompareEvents {
		si.SetTracer(recI)
		mc.SetTracer(recC)
	}

	if err := compareState(si, mc, "after construction"); err != nil {
		return err
	}

	info := sim.DetectClockReset(d)
	if err := si.ApplyReset(info, 2); err != nil {
		return fmt.Errorf("interp reset: %w", err)
	}
	if err := mc.ApplyReset(info, 2); err != nil {
		return fmt.Errorf("compiled reset: %w", err)
	}
	if err := compareState(si, mc, "after reset"); err != nil {
		return err
	}

	// Drive every non-clock, non-reset input with the same random
	// vector on both backends each cycle.
	var driven []*elab.Signal
	for _, s := range d.InputSignals() {
		if s.Index == info.Clock || s.Index == info.Reset {
			continue
		}
		driven = append(driven, s)
	}

	for cyc := 0; cyc < opts.Cycles; cyc++ {
		if opts.CompareEvents {
			recI.events = recI.events[:0]
			recC.events = recC.events[:0]
		}
		for _, s := range driven {
			v := logic.Rand(s.Width, rng.Uint64)
			if opts.XZEveryN > 0 && rng.Intn(opts.XZEveryN) == 0 {
				n := 1 + rng.Intn(3)
				for i := 0; i < n; i++ {
					bit := logic.LX
					if rng.Intn(2) == 0 {
						bit = logic.LZ
					}
					v = v.WithBit(rng.Intn(s.Width), bit)
				}
			}
			si.Set(s.Index, v)
			mc.Set(s.Index, v)
		}
		if info.Clock >= 0 {
			errI := si.Tick(info.Clock)
			errC := mc.Tick(info.Clock)
			if (errI == nil) != (errC == nil) {
				return fmt.Errorf("cycle %d: tick error divergence: interp=%v compiled=%v", cyc, errI, errC)
			}
			if errI != nil {
				return nil // both refused identically (comb loop)
			}
		} else {
			errI := si.Settle()
			errC := mc.Settle()
			if (errI == nil) != (errC == nil) {
				return fmt.Errorf("cycle %d: settle error divergence: interp=%v compiled=%v", cyc, errI, errC)
			}
			if errI != nil {
				return nil
			}
			si.AdvanceCycle()
			mc.AdvanceCycle()
		}
		if err := compareState(si, mc, fmt.Sprintf("cycle %d", cyc)); err != nil {
			return err
		}
		if opts.CompareEvents {
			if err := compareEventStreams(recI.events, recC.events, cyc); err != nil {
				return err
			}
		}
	}
	return nil
}

// compareState checks every signal, every memory word, the cycle
// counters, and the snapshot byte accounting of both backends.
func compareState(si *sim.Simulator, mc *simc.Machine, where string) error {
	d := si.Design()
	for i, sig := range d.Signals {
		vi, vc := si.Get(i), mc.Get(i)
		if !vi.Eq4(vc) {
			return fmt.Errorf("%s: signal %s (%d): interp=%s compiled=%s", where, sig.Name, i, vi, vc)
		}
	}
	for mi, mem := range d.Memories {
		for a := uint64(0); a < uint64(mem.Depth); a++ {
			vi, vc := si.GetMem(mi, a), mc.GetMem(mi, a)
			if !vi.Eq4(vc) {
				return fmt.Errorf("%s: mem %s[%d]: interp=%s compiled=%s", where, mem.Name, a, vi, vc)
			}
		}
	}
	if si.Cycle() != mc.Cycle() {
		return fmt.Errorf("%s: cycle counter: interp=%d compiled=%d", where, si.Cycle(), mc.Cycle())
	}
	snapI, snapC := si.Snapshot(), mc.Snapshot()
	if snapI.Bytes() != snapC.Bytes() {
		return fmt.Errorf("%s: snapshot bytes: interp=%d compiled=%d", where, snapI.Bytes(), snapC.Bytes())
	}
	for i := range snapI.Vals {
		if !snapI.Vals[i].Eq4(snapC.Vals[i]) {
			return fmt.Errorf("%s: snapshot val %d: interp=%s compiled=%s", where, i, snapI.Vals[i], snapC.Vals[i])
		}
	}
	return nil
}

func compareEventStreams(ei, ec []branchEvent, cyc int) error {
	if len(ei) != len(ec) {
		return fmt.Errorf("cycle %d: branch event count: interp=%d compiled=%d", cyc, len(ei), len(ec))
	}
	for k := range ei {
		if ei[k] != ec[k] {
			return fmt.Errorf("cycle %d: branch event %d: interp=%+v compiled=%+v", cyc, k, ei[k], ec[k])
		}
	}
	return nil
}
