package vdg

import (
	"slices"

	"aliaslab/internal/ctypes"
	"aliaslab/internal/paths"
	"aliaslab/internal/sema"
	"aliaslab/internal/token"
)

// The builder evaluates one function at a time into a value table: one
// record per operation, one per value it produces, one per edge. Only
// the operations something reads become graph nodes, the way the
// value-numbering compiler the paper took its VDG from never
// materialized values nothing used (PAPER.md §2).
//
// When the function is evaluated, emit resolves it in three steps:
//
//  1. A gamma whose inputs, apart from its own output through a loop
//     back edge, all read one value forwards its readers to that value.
//     Loop headers make such gammas for every variable the loop leaves
//     unchanged. Forwarding repeats until no gamma forwards, and moves
//     a gamma's readers, in order, to the end of its source's readers.
//  2. A record with no effect beyond its values (rec.pure) is dropped
//     when every reader of its values is dropped.
//  3. The records that stay become the function's nodes, in evaluation
//     order, with their edges in the order they were connected. Each
//     built node, output and input takes the graph's next ID of its
//     kind: nodes in evaluation order, outputs in value-table order,
//     inputs node by node in slot order.
//
// The records, values and edges hold no pointers, so the table costs
// the garbage collector nothing to scan; the few pointers an operation
// carries sit in side slices.

// value names one value of the function being evaluated: an index into
// the table's outs. The zero value is "no value".
type value int32

// op is an operation as the builder evaluates it: its kind and the
// payload its node will carry.
type op struct {
	kind NodeKind
	pos  token.Pos
	path *paths.Path  // KAddr, KAlloc
	obj  *sema.Object // KParam, variable KAddr
	text string       // KFieldAddr, KExtract: the member; KPrimop: the operator

	transparent, effectful bool
}

// rec is one evaluated operation: where its inputs sit in the table's
// edges and which outs are its values.
type rec struct {
	pos     token.Pos
	in      int32 // first input slot in edges
	nIn     int32 // inputs connected so far
	cap     int32 // input slots reserved
	out     value // first value
	uses    int32 // readers of its values not yet dropped
	payload int32 // index into payloads, 0 when there is none
	node    int32 // index of the built node in emit's array
	nOut    uint8
	kind    NodeKind

	transparent, effectful, dropped bool
}

// payload is the pointer part of an op.
type payload struct {
	path *paths.Path
	obj  *sema.Object
	text string
}

// pure reports whether the record has no effect beyond its values, so
// nothing is lost when no one reads them.
func (r *rec) pure() bool {
	if r.effectful {
		return false
	}
	switch r.kind {
	case KConst, KAddr, KFieldAddr, KIndexAddr, KLookup, KPrimop,
		KExtract, KGamma, KUnknown, KAlloc, KUpdate:
		return true
	}
	return false
}

// out is one evaluated value; its readers form a list threaded through
// edge.next. Its type is in the table's types, at the same index.
type out struct {
	rec         int32
	first, last int32 // reader edges, 0 when none
	n           int32 // readers
	fwd         value // set when a gamma forwards its readers here
	built       int32 // index of the built output in emit's array
	store       bool
}

// edge is one input of a record: which record reads which value.
type edge struct {
	rec  int32
	src  value
	next int32 // the next reader of src, 0 at the end
}

// recording is one Graph.VarValues entry made while evaluating.
type recording struct {
	obj *sema.Object
	v   value
}

// table is the value table of the function being evaluated. It is
// reused from function to function; index 0 of recs, outs, types,
// edges and payloads is a sentinel, so 0 means "none" throughout.
type table struct {
	recs     []rec
	outs     []out
	types    []*ctypes.Type // by value
	edges    []edge
	payloads []payload
	gammas   []int32 // KGamma records, in evaluation order
	calls    []int32 // KCall records, in evaluation order
	params   []value // the value formals, in order
	recorded []recording
	work     []int32
}

// newTable returns a table with room for the largest function of a
// program with exprs checked expressions: on the corpus a function
// evaluates at most about a third as many values as its program has
// expressions, and most programs' largest function a fourth.
func newTable(exprs int) table {
	n := max(64, exprs/4)
	return table{
		recs:     make([]rec, 0, n),
		outs:     make([]out, 0, n),
		types:    make([]*ctypes.Type, 0, n),
		edges:    make([]edge, 0, 2*n),
		payloads: make([]payload, 0, n/2),
	}
}

func (t *table) reset() {
	t.recs = append(t.recs[:0], rec{})
	t.outs = append(t.outs[:0], out{})
	t.types = append(t.types[:0], nil)
	t.edges = append(t.edges[:0], edge{})
	t.payloads = append(t.payloads[:0], payload{})
	t.gammas = t.gammas[:0]
	t.calls = t.calls[:0]
	t.params = t.params[:0]
	t.recorded = t.recorded[:0]
}

// node evaluates o with room for arity inputs and returns its record.
func (fb *fnBuilder) node(o op, arity int) int32 {
	t := &fb.b.t
	n := len(t.edges)
	r := rec{pos: o.pos, in: int32(n), cap: int32(arity),
		kind: o.kind, transparent: o.transparent, effectful: o.effectful}
	if o.path != nil || o.obj != nil || o.text != "" {
		r.payload = int32(len(t.payloads))
		t.payloads = append(t.payloads, payload{o.path, o.obj, o.text})
	}
	t.edges = slices.Grow(t.edges, arity)[:n+arity]
	clear(t.edges[n:])
	i := int32(len(t.recs))
	t.recs = append(t.recs, r)
	switch o.kind {
	case KGamma:
		t.gammas = append(t.gammas, i)
	case KCall:
		t.calls = append(t.calls, i)
	}
	return i
}

// output adds a value to record r. typ nil and store true make a store
// value.
func (fb *fnBuilder) output(r int32, typ *ctypes.Type, store bool) value {
	t := &fb.b.t
	v := value(len(t.outs))
	rr := &t.recs[r]
	if rr.nOut == 0 {
		rr.out = v
	}
	t.outs = append(t.outs, out{rec: r, store: store})
	t.types = append(t.types, typ)
	rr.nOut++
	return v
}

// connect adds an input to record r that reads src.
func (fb *fnBuilder) connect(r int32, src value) {
	t := &fb.b.t
	rr := &t.recs[r]
	if rr.nIn == rr.cap {
		panic("vdg: more inputs than reserved on a " + rr.kind.String())
	}
	e := rr.in + rr.nIn
	rr.nIn++
	t.edges[e] = edge{rec: r, src: src}
	t.appendReaders(src, e, e, 1)
}

// appendReaders appends the reader list first..last (n edges) to v's.
func (t *table) appendReaders(v value, first, last, n int32) {
	o := &t.outs[v]
	if o.last == 0 {
		o.first = first
	} else {
		t.edges[o.last].next = first
	}
	o.last = last
	o.n += n
}

// effectful marks the record of v as having effects, so it is built
// even when v is never read, and returns v.
func (fb *fnBuilder) effectful(v value) value {
	t := &fb.b.t
	t.recs[t.outs[v].rec].effectful = true
	return v
}

// forwardTrivialGammas is step 1: a read gamma whose inputs other than
// its own output all read one value hands its readers to that value.
func (t *table) forwardTrivialGammas() {
	for changed := true; changed; {
		changed = false
		for _, r := range t.gammas {
			rr := &t.recs[r]
			self := rr.out
			o := &t.outs[self]
			if o.n == 0 {
				continue
			}
			var src value
			trivial := true
			for e := rr.in; e < rr.in+rr.nIn; e++ {
				s := t.edges[e].src
				if s == self {
					continue // self loop through the back edge
				}
				if src == 0 {
					src = s
				} else if s != src {
					trivial = false
					break
				}
			}
			if !trivial || src == 0 {
				continue
			}
			for e := o.first; e != 0; e = t.edges[e].next {
				t.edges[e].src = src
			}
			t.appendReaders(src, o.first, o.last, o.n)
			o.first, o.last, o.n = 0, 0, 0
			o.fwd = src
			changed = true
		}
	}
}

// dropUnread is step 2: it drops every pure record all of whose
// readers are dropped.
func (t *table) dropUnread() {
	work := t.work[:0]
	for r := int32(1); r < int32(len(t.recs)); r++ {
		rr := &t.recs[r]
		rr.uses = 0
		for v := rr.out; v < rr.out+value(rr.nOut); v++ {
			rr.uses += t.outs[v].n
		}
		if rr.uses == 0 && rr.pure() {
			work = append(work, r)
		}
	}
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		rr := &t.recs[r]
		rr.dropped = true
		for e := rr.in; e < rr.in+rr.nIn; e++ {
			s := t.outs[t.edges[e].src].rec
			sr := &t.recs[s]
			sr.uses--
			if sr.uses == 0 && !sr.dropped && sr.pure() {
				work = append(work, s)
			}
		}
	}
	t.work = work
}

// indirect reports whether a lookup or update reads its location from
// anything but a constant address, reached through field and index
// address arithmetic only: a loaded pointer, a parameter, a call
// result or a merge makes the memory operation indirect. These flags
// drive the paper's Figure 4 statistics.
func (t *table) indirect(rr *rec) bool {
	loc := &t.recs[t.outs[t.edges[rr.in].src].rec]
	for loc.kind == KFieldAddr || loc.kind == KIndexAddr {
		loc = &t.recs[t.outs[t.edges[loc.in].src].rec]
	}
	return loc.kind != KAddr
}

// emit resolves the evaluated function and builds the records that
// stay as fg's nodes (step 3). The function's nodes, outputs, inputs
// and edge lists are each one exact-size array.
func (fb *fnBuilder) emit() {
	t, g, fg := &fb.b.t, fb.g, fb.fg
	t.forwardTrivialGammas()
	t.dropUnread()

	kept, nOuts, nIns := 0, 0, 0
	for r := 1; r < len(t.recs); r++ {
		if rr := &t.recs[r]; !rr.dropped {
			kept++
			nOuts += int(rr.nOut)
			nIns += int(rr.nIn)
		}
	}
	nodes := make([]Node, kept)
	outputs := make([]Output, nOuts)
	inputs := make([]Input, nIns)
	nodeList := make([]*Node, kept+len(t.calls))
	outList := make([]*Output, nOuts)
	// Every built input is a reader of a built output, so the readers
	// take as many slots as the inputs.
	inList := make([]*Input, 2*nIns)

	// Each built node, output and input takes the graph's next ID of its
	// kind.
	nodeID, outID, inID := g.nNodes, g.nOutputs, len(g.inputs)
	g.nNodes, g.nOutputs = nodeID+kept, outID+nOuts

	// Nodes, in evaluation order, each with its outputs. The builder adds
	// a record's values right after the record, so this is also
	// value-table order.
	fg.Nodes = nodeList[:kept:kept]
	k, ko := 0, 0
	for r := 1; r < len(t.recs); r++ {
		rr := &t.recs[r]
		if rr.dropped {
			continue
		}
		n := &nodes[k]
		fg.Nodes[k] = n
		rr.node = int32(k)
		n.ID, n.Fn, n.Pos, n.Kind = nodeID+k, fg, rr.pos, rr.kind
		k++
		n.Transparent, n.Effectful = rr.transparent, rr.effectful
		if rr.payload != 0 {
			p := &t.payloads[rr.payload]
			n.Path, n.Obj = p.path, p.obj
			if rr.kind == KPrimop {
				n.Op = p.text
			} else {
				n.Field = p.text
			}
		}
		if rr.kind == KLookup || rr.kind == KUpdate {
			n.Indirect = t.indirect(rr)
		}
		if rr.nOut > 0 {
			m := int(rr.nOut)
			n.Outputs, outList = outList[:m:m], outList[m:]
			for i := range n.Outputs {
				v := rr.out + value(i)
				ov := &t.outs[v]
				o := &outputs[ko]
				ov.built = int32(ko)
				o.ID, o.Node, o.Index, o.Type, o.IsStore = outID+ko, n, i, t.types[v], ov.store
				ko++
				n.Outputs[i] = o
			}
		}
	}

	// Inputs, node by node in slot order; the graph's input table is
	// indexed by ID, so each joins it as it is numbered.
	g.inputs = slices.Grow(g.inputs, nIns)
	ki := 0
	for r := 1; r < len(t.recs); r++ {
		rr := &t.recs[r]
		if rr.dropped || rr.nIn == 0 {
			continue
		}
		n, m := &nodes[rr.node], int(rr.nIn)
		n.Inputs, inList = inList[:m:m], inList[m:]
		for i := range n.Inputs {
			e := &t.edges[rr.in+int32(i)]
			in := &inputs[ki]
			in.Node, in.Index, in.Src, in.ID = n, i, &outputs[t.outs[e.src].built], inID+ki
			ki++
			n.Inputs[i] = in
			g.inputs = append(g.inputs, in)
		}
	}

	// Readers, in list order, less the dropped ones.
	for v := value(1); v < value(len(t.outs)); v++ {
		ov := &t.outs[v]
		rr := &t.recs[ov.rec]
		if ov.n == 0 || rr.dropped {
			continue
		}
		m := int(rr.uses) // the readers left, when the record has one value
		if rr.nOut > 1 {
			m = 0
			for e := ov.first; e != 0; e = t.edges[e].next {
				if !t.recs[t.edges[e].rec].dropped {
					m++
				}
			}
		}
		if m == 0 {
			continue
		}
		cons := inList[:0:m]
		inList = inList[m:]
		for e := ov.first; e != 0; e = t.edges[e].next {
			if er := &t.recs[t.edges[e].rec]; !er.dropped {
				cons = append(cons, nodes[er.node].Inputs[e-er.in])
			}
		}
		outputs[ov.built].Consumers = cons
	}

	fg.StoreParam = &outputs[t.outs[fb.storeParam].built]
	if len(t.params) > 0 {
		fg.ParamOuts = make([]*Output, len(t.params))
		for i, v := range t.params {
			fg.ParamOuts[i] = &outputs[t.outs[v].built]
		}
	}
	if fb.ret != 0 {
		fg.Return = &nodes[t.recs[fb.ret].node]
	}
	if len(t.calls) > 0 {
		fg.Calls = nodeList[kept:]
		for i, r := range t.calls {
			fg.Calls[i] = &nodes[t.recs[r].node]
		}
	}

	// Query anchors: a value a gamma forwarded is recorded as its
	// source; one that was dropped is not part of the analyzed program.
	b := fb.b
	for _, rv := range t.recorded {
		v := rv.v
		for t.outs[v].fwd != 0 {
			v = t.outs[v].fwd
		}
		if t.recs[t.outs[v].rec].dropped {
			continue
		}
		obj := rv.obj
		if b.vals[obj.ID] == nil {
			b.valObjs = append(b.valObjs, obj)
		}
		// Most variables have a handful of occurrences.
		b.vals[obj.ID] = append(b.valLists.Grow(b.vals[obj.ID], 4), &outputs[t.outs[v].built])
	}
}
