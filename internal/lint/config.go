package lint

// ModuleAnalyzers returns the analyzer suite configured for this module's
// layout. The wallclock allowlist names the packages that legitimately
// read the wall clock: metrics and benchmark harnesses (they measure real
// elapsed time), the driver (queue-wait accounting), data generators, and
// the CLI/example binaries. Everything else — the engine core, the SPE
// runtime, windows, checkpointing, changelog — must use the injected
// NowNanos clock. The maporder scope names the packages whose outputs must
// be deterministic: checkpoint encoding, changelog emission, result
// routing, and the runtime exchanges. The supervised-go scope names the
// runtime packages whose goroutines must enter through the
// panic-capturing supervisor, so no operator panic can kill the process.
// The errsink scope names the packages whose state goes durable — the
// operators, the checkpoint runner, the changelog — plus internal/durable,
// the store, the WAL and the log-record codec under them: a dropped fsync or
// Close error there is precisely the silent data loss the layer exists to
// prevent — an unchecked Sync means the manifest may reference bytes the
// kernel never promised.
func ModuleAnalyzers(modPath string) []*Analyzer {
	wallclockAllow := []string{
		modPath + "/internal/metrics",
		modPath + "/internal/experiments",
		modPath + "/internal/baseline",
		modPath + "/internal/driver",
		modPath + "/internal/gen",
		modPath + "/cmd/...",
		modPath + "/examples/...",
	}
	mapOrderScope := []string{
		modPath + "/internal/checkpoint",
		modPath + "/internal/changelog",
		modPath + "/internal/core",
		modPath + "/internal/spe",
		// The durable manifest is itself a deterministic encoding: equal
		// store states must serialize to byte-identical manifests or the
		// chaos tests' byte-identity bar is unverifiable.
		modPath + "/internal/durable",
		// The linter's own output must be deterministic too (the CI
		// self-check runs astream-vet over internal/lint).
		modPath + "/internal/lint",
	}
	supervisedScope := []string{
		modPath + "/internal/spe",
		modPath + "/internal/core",
	}
	errsinkScope := []string{
		modPath + "/internal/core",
		modPath + "/internal/checkpoint",
		modPath + "/internal/changelog",
		modPath + "/internal/durable",
	}
	return []*Analyzer{
		NewWallclock(wallclockAllow),
		NewLockHeldSend(),
		NewMapOrder(mapOrderScope),
		NewLeakyGo(),
		NewNakedAtomic(),
		NewSupervisedGo(supervisedScope),
		NewErrSink(errsinkScope),
	}
}
