// Package ignore is a lint fixture for the //lint:ignore directive: the
// same-line, own-line, and "all" forms must suppress; a wrong analyzer
// name must not; a directive with no reason is itself a finding, and so is a
// directive whose name no consumer reads (a typo, or a retired name).
package ignore

import "time"

func suppressedSameLine() int64 {
	return time.Now().UnixNano() //lint:ignore wallclock fixture exercises same-line suppression
}

func suppressedOwnLine() int64 {
	//lint:ignore wallclock fixture exercises own-line suppression
	return time.Now().UnixNano()
}

func suppressedAll() int64 {
	return time.Now().UnixNano() //lint:ignore all fixture exercises the all wildcard
}

func wrongAnalyzer() int64 {
	//lint:ignore maporder names a different analyzer, so wallclock still fires
	return time.Now().UnixNano() // want "time\.Now reads the wall clock"
}

func missingReason() int64 {
	/* want "directive is missing a reason" */ //lint:ignore wallclock
	return time.Now().UnixNano()               // want "time\.Now reads the wall clock"
}

func unknownName() int64 {
	/* want "unknown directive //lint:hotpth" */ //lint:hotpth misspelt, so no hot-path root
	return 0
}
