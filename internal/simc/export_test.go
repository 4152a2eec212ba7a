package simc

import "repro/internal/elab"

// Lowering compiles every process body of d once more and reports how
// many expression and statement nodes took the one-word and the wide
// lowering, and how many wide nodes a one-word parent reads.
func Lowering(d *elab.Design) (words, wides, narrowed int, err error) {
	m, err := New(d)
	if err != nil {
		return 0, 0, 0, err
	}
	c := &compiler{m: m}
	for _, p := range d.Procs {
		c.compileStmts(p.Body)
	}
	return c.words, c.wides, c.narrowed, nil
}
