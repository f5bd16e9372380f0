package report

// Envelope is the machine-readable degradation wrapper shared by every
// JSON surface that can return something coarser (or weaker) than what
// was asked: the CLI's -vet output when the points-to analysis hit its
// budget, and the analysis server's 206/503 bodies. One schema, one
// set of tests — a consumer that understands the CLI's degraded vet
// report understands the server's degraded analysis response.
//
// Field discipline: Degraded and Reason are always set on a degraded
// result. Tier and Notes are optional refinements (the server fills
// them from the solve dispatch's ladder; the CLI's vet path predates
// tiers and leaves them empty, which keeps its historical bytes
// identical via omitempty).
type Envelope struct {
	// Degraded is true when the result is anything other than the exact
	// answer that was requested.
	Degraded bool `json:"degraded"`

	// Reason says what forced the degradation (the tripped limit, the
	// injected fault, the recovered panic).
	Reason string `json:"reason"`

	// Tier names the degradation ladder rung that answered:
	// "ci-fallback" or "partial-ci" (see solve.Tier.Rung). Empty when the
	// producer does not distinguish tiers.
	Tier string `json:"tier,omitempty"`

	// Sound is three-valued by omission: nil means the producer did not
	// say; otherwise it reports whether the degraded sets still
	// over-approximate the exact answer (false only for a partial CI
	// fixpoint, whose result must not be used as a may-alias answer).
	Sound *bool `json:"sound,omitempty"`

	// Notes is the human-readable degradation trace, one line per
	// ladder transition, in order.
	Notes []string `json:"notes,omitempty"`

	// Mode names how the points-to fixpoint was computed: "query" when
	// a demand slice answered the request, empty for the default
	// exhaustive solve. Unlike the other fields this is not a
	// degradation signal; it rides in the envelope so consumers find
	// tier and mode in one place.
	Mode string `json:"mode,omitempty"`
}

// WithMode returns a copy of e with the analysis mode attached.
func (e Envelope) WithMode(mode string) Envelope {
	e.Mode = mode
	return e
}

// DegradedEnvelope builds the common case: a degraded result with a
// reason and optional tier.
func DegradedEnvelope(reason, tier string) Envelope {
	return Envelope{Degraded: true, Reason: reason, Tier: tier}
}

// WithSound returns a copy of e with the soundness verdict attached.
func (e Envelope) WithSound(sound bool) Envelope {
	e.Sound = &sound
	return e
}
