package pipeline

import "testing"

// benchPipelineConfig is the shared configuration of the serial,
// parallel and cached study runs (the main window only); serial over
// parallel is the sharding speedup.
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

// BenchmarkPipelineCached is BenchmarkPipelineParallel with the
// day-batch cache enabled (source.Cached, unbounded): pass 2 replays
// the batches pass 1 materialized instead of regenerating them. The
// delta against BenchmarkPipelineParallel is the pass-2 reuse win;
// results are byte-identical (TestRunnerMatchesRun).
func BenchmarkPipelineCached(b *testing.B) {
	cfg := benchPipelineConfig()
	cfg.Concurrency = 0 // all cores
	cfg.CacheDays = -1  // cache every day
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg)
	}
}
