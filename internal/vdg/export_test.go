package vdg

// CreatedNodes returns the number of nodes a build created, dead ones
// included: the denominator of the allocation guard.
func CreatedNodes(g *Graph) int { return g.nextNodeID }
