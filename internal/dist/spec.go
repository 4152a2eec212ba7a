package dist

import (
	"fmt"

	"repro/internal/designs"
	"repro/internal/props"
)

// ResolveSpec turns a wire campaign spec into the benchmark and the
// full property set. Both sides of the protocol run it — the
// coordinator to validate the campaign and shape the frontier, each
// worker to build its engines — so a registry benchmark resolves from
// the binary's own designs package and only -src campaigns ship HDL
// source over the wire.
func ResolveSpec(s CampaignSpec) (*designs.Benchmark, []*props.Property, error) {
	var b *designs.Benchmark
	switch {
	case s.Source != "":
		if s.Top == "" {
			return nil, nil, fmt.Errorf("dist: spec ships source but no top module")
		}
		b = &designs.Benchmark{Name: s.Top, Top: s.Top, Source: s.Source}
	case s.Bench != "":
		var ok bool
		if b, ok = designs.Lookup(s.Bench, !s.Fixed); !ok {
			return nil, nil, fmt.Errorf("dist: unknown benchmark %q", s.Bench)
		}
	default:
		return nil, nil, fmt.Errorf("dist: spec names neither a benchmark nor a source file")
	}
	properties := make([]*props.Property, 0, len(b.Properties)+len(s.Props))
	properties = append(properties, b.Properties...)
	for _, ps := range s.Props {
		p, err := props.ParseProperty(ps.Name, ps.Expr, ps.DisableIff)
		if err != nil {
			return nil, nil, fmt.Errorf("dist: property %q: %w", ps.Name, err)
		}
		properties = append(properties, p)
	}
	return b, properties, nil
}
