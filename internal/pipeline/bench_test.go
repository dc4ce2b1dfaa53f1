package pipeline

import "testing"

// benchPipelineConfig is the shared configuration of the serial and
// parallel study runs (the main window only); serial over parallel is
// the sharding speedup.
func benchPipelineConfig() Config {
	cfg := determinismConfig()
	cfg.ExtendedWindow = false
	return cfg
}

func BenchmarkPipelineSerial(b *testing.B) {
	cfg := benchPipelineConfig()
	cfg.Concurrency = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg)
	}
}

func BenchmarkPipelineParallel(b *testing.B) {
	cfg := benchPipelineConfig()
	cfg.Concurrency = 0 // all cores
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg)
	}
}
