package server

// Panics reports consumer panics isolated so far; an input's delivery
// panics are its own (InputsSnapshot, Accounting.InputPanics).
func (s *Service) Panics() uint64 { return s.panics.Load() }

// InputCursor reports the consumed resume cursor of one configured
// ingest input (0 before anything of it was consumed).
func (s *Service) InputCursor(id string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inputCursors[id].off
}
