package server

// NewWithStage is New with the pipeline's stage hook set: the chaos
// tests inject panics, sleeps and budget violations through it.
func NewWithStage(cfg Config, stage func(stage string) error) *Server {
	s := New(cfg)
	s.stage = stage
	return s
}
