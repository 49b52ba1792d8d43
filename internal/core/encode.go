package core

import (
	"context"
	"fmt"

	"fpgasat/internal/sat"
)

// Streamed is the sink-independent record of one encoding run: the
// bookkeeping needed to decode a model back into a CSP solution, plus
// the clause census. It is produced by EncodeInto, which streams the
// clauses themselves into a ClauseSink — a *sat.CNF buffer (Encode) or
// an incremental solver (sat.SolverSink) — without materializing an
// intermediate clause list.
type Streamed struct {
	Encoding Encoding
	CSP      *CSP
	// Cubes[v][c] is the indexing Boolean pattern selecting color c for
	// vertex v, for c < CSP.Domain[v].
	Cubes [][]Cube
	// NumVars is the number of DIMACS variables the encoding allocated.
	NumVars int

	// Clause census, for the size ablation experiment.
	StructuralClauses int
	ConflictClauses   int
}

// Encoded is the SAT translation of a coloring CSP under a particular
// encoding, buffered as a CNF formula for DIMACS export and single-shot
// solving. It is Streamed plus the materialized clause list.
type Encoded struct {
	*Streamed
	CNF *sat.CNF
}

// EncodeInto translates the CSP to CNF under the given encoding,
// streaming every clause into sink: per-variable structural clauses
// first, then one conflict clause per edge per common domain value (the
// negated pair of indexing patterns). Clauses are assembled in a scratch
// buffer reused across calls — sinks copy what they keep, per the
// ClauseSink contract. This is the hot path of the pipeline — with a
// sat.SolverSink the clauses go straight into the solver's clause arena
// with no intermediate garbage.
func EncodeInto(csp *CSP, enc Encoding, sink ClauseSink) *Streamed {
	a := newAlloc()
	cs := &countingSink{sink: sink}
	cubes := make([][]Cube, csp.G.N())
	for v := 0; v < csp.G.N(); v++ {
		d := csp.Domain[v]
		vc := enc.emitVar(d, a, cs)
		if len(vc) != d {
			panic(fmt.Sprintf("core: encoding %s produced %d cubes for domain %d",
				enc.Name(), len(vc), d))
		}
		cubes[v] = vc
	}
	structural := cs.n
	if csp.G.Weighted() {
		emitDistanceConflicts(csp, enc, cubes, a, cs)
	} else {
		// Classic disequality: one conflict clause per edge per common
		// domain value. This loop is kept verbatim — unweighted CSPs must
		// emit byte-identical clause streams to the pre-distance encoder
		// (pinned by TestPinnedClauseStreams).
		csp.G.ForEachEdge(func(u, v int) {
			common := csp.Domain[u]
			if csp.Domain[v] < common {
				common = csp.Domain[v]
			}
			for c := 0; c < common; c++ {
				cl := cubes[u][c].AppendNegated(a.buf[:0])
				cl = cubes[v][c].AppendNegated(cl)
				a.buf = cl
				cs.AddClause(cl...)
			}
		})
	}
	return &Streamed{
		Encoding:          enc,
		CSP:               csp,
		Cubes:             cubes,
		NumVars:           a.count(),
		StructuralClauses: structural,
		ConflictClauses:   cs.n - structural,
	}
}

// Encode translates the CSP to CNF under the given encoding into a
// buffered formula (EncodeInto with a *sat.CNF sink).
func Encode(csp *CSP, enc Encoding) *Encoded {
	cnf := &sat.CNF{}
	st := EncodeInto(csp, enc, cnf)
	if cnf.NumVars < st.NumVars {
		cnf.NumVars = st.NumVars
	}
	cnf.Comments = append(cnf.Comments,
		fmt.Sprintf("encoding: %s", enc.Name()),
		fmt.Sprintf("graph: %d vertices, %d edges, %d colors", csp.G.N(), csp.G.M(), csp.K),
	)
	return &Encoded{Streamed: st, CNF: cnf}
}

// DescribeVariable returns the indexing Boolean patterns an encoding
// generates for a single CSP variable with domain {0..d-1}, together
// with the number of Boolean variables it allocates. It is used by the
// Figure 1 reproduction and by size ablations.
func DescribeVariable(enc Encoding, d int) ([]Cube, int, error) {
	if d < 1 {
		return nil, 0, fmt.Errorf("core: domain size %d", d)
	}
	a := newAlloc()
	cubes := enc.emitVar(d, a, discardSink{})
	return cubes, a.count(), nil
}

// Decode maps a satisfying assignment back to a CSP solution. For
// multivalued encodings several values may be selected; the smallest
// is taken, which the conflict clauses guarantee is safe.
func (e *Streamed) Decode(model []bool) ([]int, error) {
	colors := make([]int, e.CSP.G.N())
	for v := range colors {
		colors[v] = -1
		for c, cube := range e.Cubes[v] {
			if cube.Eval(model) {
				colors[v] = c
				break
			}
		}
		if colors[v] < 0 {
			return nil, fmt.Errorf("core: no domain value selected for vertex %d under %s",
				v, e.Encoding.Name())
		}
	}
	return colors, nil
}

// DecodeVerify decodes a satisfying assignment and verifies that the
// result is a proper coloring within every domain — the flow's
// end-to-end correctness guarantee.
func (e *Streamed) DecodeVerify(model []bool) ([]int, error) {
	colors, err := e.Decode(model)
	if err != nil {
		return nil, err
	}
	if err := e.CSP.Verify(colors); err != nil {
		return nil, fmt.Errorf("core: decoded solution invalid: %w", err)
	}
	return colors, nil
}

// SolveContext runs the CDCL solver on the CNF and, when satisfiable,
// decodes and verifies the coloring. The solve returns Unknown
// promptly once ctx is cancelled or its deadline passes.
func (e *Encoded) SolveContext(ctx context.Context, opts sat.Options) (sat.Status, []int, error) {
	return e.decodeResult(sat.SolveCNFContext(ctx, e.CNF, opts))
}

func (e *Encoded) decodeResult(res sat.Result) (sat.Status, []int, error) {
	if res.Status != sat.Sat {
		return res.Status, nil, nil
	}
	colors, err := e.DecodeVerify(res.Model)
	if err != nil {
		return res.Status, nil, err
	}
	return sat.Sat, colors, nil
}
