package lint

// ModuleAnalyzers returns the analyzer suite configured for this module's
// layout. The wallclock allowlist names the packages that legitimately
// read the wall clock: metrics and benchmark harnesses (they measure real
// elapsed time), the driver (queue-wait accounting), data generators, and
// the CLI/example binaries. Everything else — the engine core, the SPE
// runtime, windows, checkpointing, changelog — must use the injected
// NowNanos clock. The maporder scope names the packages whose outputs must
// be deterministic: checkpoint encoding, changelog emission, result
// routing, and the runtime exchanges. Error paths on durable state have no
// analyzer: the E rows of cmd/astream-mutate/rows.json drop each error
// check of the packages whose state goes durable, and a test must fail.
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
	return []*Analyzer{
		NewWallclock(wallclockAllow),
		NewLockHeldSend(),
		NewMapOrder(mapOrderScope),
		NewNakedAtomic(),
	}
}
