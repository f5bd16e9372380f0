package vdg

// SimplifyGammas collapses trivial gamma nodes: a gamma whose inputs
// (ignoring self-references through loop back edges) all come from one
// source is replaced by that source. Loop construction creates such
// gammas for every variable live at a loop header; collapsing the ones
// whose variable is loop-invariant restores the sparse representation
// the paper's compiler produces.
func SimplifyGammas(g *Graph) {
	// Collapsed gamma outputs are recorded, by output ID, so VarValues
	// entries pointing at them can be redirected to the surviving
	// source (the collapsed gamma becomes dead and is deleted by
	// RemoveDeadNodes). The table is made at the first collapse.
	var redirect []*Output
	var consumers []*Input // reused copy of a collapsing gamma's consumers
	for {
		changed := false
		for _, fg := range g.Funcs {
			for _, n := range fg.Nodes {
				if n.Kind != KGamma || len(n.Outputs) == 0 {
					continue
				}
				out := n.Outputs[0]
				if len(out.Consumers) == 0 {
					continue // dead gammas are handled by RemoveDeadNodes
				}
				var src *Output
				trivial := true
				for _, in := range n.Inputs {
					if in.Src == out {
						continue // self loop through the back edge
					}
					if src == nil {
						src = in.Src
					} else if src != in.Src {
						trivial = false
						break
					}
				}
				if !trivial || src == nil || src == out {
					continue
				}
				// Rewire every consumer of the gamma to the single source.
				consumers = append(consumers[:0], out.Consumers...)
				for _, c := range consumers {
					Rewire(c, src)
				}
				if redirect == nil {
					redirect = make([]*Output, g.OutputIDs())
				}
				redirect[out.ID] = src
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	if redirect == nil || g.VarValues == nil {
		return
	}
	chase := func(o *Output) *Output {
		for redirect[o.ID] != nil {
			o = redirect[o.ID]
		}
		return o
	}
	for obj, outs := range g.VarValues {
		for i, o := range outs {
			outs[i] = chase(o)
		}
		g.VarValues[obj] = outs
	}
}

// isPure reports whether a node has no effect beyond its outputs and may
// be removed when nothing consumes them.
func isPure(n *Node) bool {
	return !n.Effectful && isPureKind(n.Kind)
}

// isPureKind reports node kinds with no effect beyond their outputs;
// such nodes may be removed when nothing consumes them.
func isPureKind(k NodeKind) bool {
	switch k {
	case KConst, KAddr, KFieldAddr, KIndexAddr, KLookup, KPrimop,
		KExtract, KGamma, KUnknown, KAlloc, KUpdate:
		return true
	}
	return false
}

// RemoveDeadNodes deletes pure nodes none of whose outputs are consumed,
// iterating to a fixpoint (removing a node can strand its producers).
// Formals, calls, and return sinks are always kept.
func RemoveDeadNodes(g *Graph) {
	dead := make([]bool, g.nextNodeID) // by Node.ID
	ndead := 0
	// Worklist over candidate nodes.
	work := make([]*Node, 0, g.nextNodeID)
	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			if isPure(n) {
				work = append(work, n)
			}
		}
	}
	liveConsumers := func(o *Output) int {
		c := 0
		for _, in := range o.Consumers {
			if !dead[in.Node.ID] {
				c++
			}
		}
		return c
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if dead[n.ID] || !isPure(n) {
			continue
		}
		used := false
		for _, o := range n.Outputs {
			if liveConsumers(o) > 0 {
				used = true
				break
			}
		}
		if used {
			continue
		}
		dead[n.ID] = true
		ndead++
		// Producers of this node may now be dead too.
		for _, in := range n.Inputs {
			if isPure(in.Src.Node) && !dead[in.Src.Node.ID] {
				work = append(work, in.Src.Node)
			}
		}
	}
	if ndead == 0 {
		return
	}
	for _, fg := range g.Funcs {
		kept := fg.Nodes[:0]
		for _, n := range fg.Nodes {
			if !dead[n.ID] {
				kept = append(kept, n)
			}
		}
		fg.Nodes = kept
	}
	// Scrub consumer lists of references from dead nodes.
	g.Outputs(func(o *Output) {
		kept := o.Consumers[:0]
		for _, in := range o.Consumers {
			if !dead[in.Node.ID] {
				kept = append(kept, in)
			}
		}
		o.Consumers = kept
	})
	// Drop query anchors on deleted nodes: a value occurrence that only
	// fed dead code is not part of the analyzed program.
	for obj, outs := range g.VarValues {
		kept := outs[:0]
		for _, o := range outs {
			if !dead[o.Node.ID] {
				kept = append(kept, o)
			}
		}
		if len(kept) == 0 {
			delete(g.VarValues, obj)
			continue
		}
		g.VarValues[obj] = kept
	}
}

// ClassifyIndirect marks lookup/update nodes whose location input is not
// a constant-address chain. A location that reaches a KAddr through only
// field/index address arithmetic is statically known storage (direct);
// anything else — a loaded pointer, a parameter, a call result, a merge —
// makes the memory operation indirect. These flags drive the paper's
// Figure 4 statistics.
func ClassifyIndirect(g *Graph) {
	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			if n.Kind != KLookup && n.Kind != KUpdate {
				continue
			}
			root := n.Loc().Node
			for root.Kind == KFieldAddr || root.Kind == KIndexAddr {
				root = root.Inputs[0].Src.Node
			}
			n.Indirect = root.Kind != KAddr
		}
	}
}
