// Command hdlsim simulates an HDL design with random stimulus and
// writes a VCD trace, exercising the four-state simulator standalone.
//
// Usage:
//
//	hdlsim -src design.sv -top mymodule -cycles 200 -vcd out.vcd
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	symbfuzz "repro"
	"repro/internal/logic"
	"repro/internal/sim"
	"repro/internal/uvm"
	"repro/internal/vcd"
)

func main() {
	var (
		srcF    = flag.String("src", "", "HDL source file")
		top     = flag.String("top", "", "top module")
		cycles  = flag.Int("cycles", 100, "clock cycles to simulate")
		seed    = flag.Int64("seed", 1, "stimulus seed")
		vcdOut  = flag.String("vcd", "", "VCD output file (optional)")
		simBack = flag.String("sim", "compiled", "simulation backend: compiled or interp")
	)
	flag.Parse()
	if *srcF == "" || *top == "" {
		fmt.Fprintln(os.Stderr, "hdlsim: -src and -top are required")
		os.Exit(1)
	}
	data, err := os.ReadFile(*srcF)
	if err != nil {
		fail(err)
	}
	d, err := symbfuzz.ParseAndElaborate(string(data), *top)
	if err != nil {
		fail(err)
	}
	s, err := uvm.NewBackend(d, *simBack)
	if err != nil {
		fail(err)
	}
	info := sim.DetectClockReset(d)

	var w *vcd.Writer
	if *vcdOut != "" {
		f, err := os.Create(*vcdOut)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = vcd.NewWriter(f)
		for _, sig := range d.Signals {
			w.Declare(sig.Name, sig.Width)
		}
		s.OnCycle(func(sm sim.DUV) {
			_ = w.Sample(sm.Cycle(), func(name string) logic.BV {
				idx := sm.SignalIndex(name)
				if idx < 0 {
					return logic.X(1)
				}
				return sm.Get(idx)
			})
		})
	}

	if err := s.ApplyReset(info, 2); err != nil {
		fail(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	for i := 0; i < *cycles; i++ {
		for _, in := range d.InputSignals() {
			if in.Index == info.Clock || in.Index == info.Reset {
				continue
			}
			s.Set(in.Index, logic.Rand(in.Width, rng.Uint64))
		}
		if info.Clock >= 0 {
			if err := s.Tick(info.Clock); err != nil {
				fail(err)
			}
		} else {
			if err := s.Settle(); err != nil {
				fail(err)
			}
			s.AdvanceCycle()
		}
	}
	if w != nil {
		if err := w.Flush(); err != nil {
			fail(err)
		}
	}
	fmt.Printf("simulated %d cycles of %s\n", *cycles, *top)
	for _, out := range d.OutputSignals() {
		fmt.Printf("  %-24s = %s\n", out.Name, s.Get(out.Index))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hdlsim:", err)
	os.Exit(1)
}
