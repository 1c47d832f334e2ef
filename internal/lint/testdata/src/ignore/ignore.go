// Package ignore is a lint fixture for the //lint:ignore directive: the
// same-line, own-line, and "all" forms must suppress; a wrong analyzer
// name must not; a directive with no reason is itself a finding, and so are a
// directive whose name no consumer reads (a typo, or a retired name) and an
// ignore naming an analyzer outside the suite (a retired one included).
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
	/* want "unknown directive //lint:hotpth \(known: ignore\)" */ //lint:hotpth misspelt
	return 0
}

func retiredName() int64 {
	/* want "unknown directive //lint:hotpath" */ //lint:hotpath retired with the hotalloc analyzer
	return 0
}

func retiredAnalyzer() int64 {
	/* want "unknown analyzer hotalloc in //lint:ignore" */ //lint:ignore hotalloc retired with its analyzer
	return 0
}

func retiredAnalyzerInList() int64 {
	return time.Now().UnixNano() /* want "unknown analyzer leakygo in //lint:ignore" */ //lint:ignore wallclock,leakygo the wallclock name still suppresses
}
