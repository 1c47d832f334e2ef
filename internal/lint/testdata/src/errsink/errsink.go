// Package errsink is a lint fixture: on state paths an error value must
// not be discarded, dropped at statement position, overwritten before it
// is checked, or left unread when the function ends.
package errsink

import "errors"

var errBoom = errors.New("boom")

func open() error { return errBoom }

func parse() (int, error) { return 0, errBoom }

func discardCall() {
	_ = open() // want "error result of open is discarded"
}

func discardTuple() int {
	n, _ := parse() // want "error result of parse is discarded"
	return n
}

func discardValue() {
	e := open()
	_ = e // want "error value is discarded"
}

func dropStatement() {
	open() // want "call to open drops its error result"
}

func dropDeferred() {
	defer open() // want "deferred call to open drops its error result"
}

func dropGo() {
	go open() // want "go call to open drops its error result"
}

func overwrite() error {
	err := open()
	err = open() // want "err is reassigned before the error assigned at line \d+ is checked"
	return err
}

func neverChecked() (n int, err error) {
	err = open() // want "error assigned to err is never checked"
	return 7, nil
}

func inLiteral() {
	f := func() {
		_ = open() // want "error result of open is discarded"
	}
	f()
}

// --- durable-path shapes: fsync and close errors are load-bearing ---

// file mimics the durable backend's handle: Sync and Close both report
// whether the kernel actually promised the bytes.
type file struct{}

func (file) Sync() error  { return errBoom }
func (file) Close() error { return errBoom }

// droppedSync: an unchecked fsync means the manifest may reference bytes
// the kernel never promised durable.
func droppedSync(f file) {
	f.Sync() // want "call to f.Sync drops its error result"
}

// droppedClose: a deferred Close whose error vanishes loses the last
// flush's verdict.
func droppedClose(f file) {
	defer f.Close() // want "deferred call to f.Close drops its error result"
}

// discardedSync: explicitly blanking the fsync error is the same bug with
// a paper trail.
func discardedSync(f file) {
	_ = f.Sync() // want "error result of f.Sync is discarded"
}

// syncThenCloseOverwrite: the Close error clobbers an unchecked Sync
// error — the torn write the Sync reported is silently forgotten.
func syncThenCloseOverwrite(f file) error {
	err := f.Sync()
	err = f.Close() // want "err is reassigned before the error assigned at line \d+ is checked"
	return err
}

// syncJoinedClose is the clean idiom the durable backend uses: every
// error path joins the Close verdict instead of dropping it.
func syncJoinedClose(f file) error {
	if err := f.Sync(); err != nil {
		return join(err, f.Close())
	}
	return f.Close()
}

func join(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// --- clean shapes the analyzer must stay silent on ---

// checked is the straight-line idiom.
func checked() error {
	err := open()
	if err != nil {
		return err
	}
	return nil
}

// branchChecked: a read on any syntactic path counts.
func branchChecked(flag bool) error {
	err := open()
	if flag {
		return err
	}
	return nil
}

// nilReset: assigning nil is an explicit reset, not a pending error.
func nilReset() (err error) {
	err = open()
	if err != nil {
		return err
	}
	err = nil
	return
}

// loopCarried: a variable the loop body may read next iteration is not
// reported from the straight-line walk.
func loopCarried(xs []int) error {
	var firstErr error
	for range xs {
		if e := open(); e != nil && firstErr == nil {
			firstErr = e
		}
	}
	return firstErr
}

// closureChecked: capture by a closure escapes the straight-line view and
// counts as a potential check.
func closureChecked() func() error {
	err := open()
	return func() error { return err }
}

// breakRead: the only check of the first error sits on the path that
// leaves the loop, so on the path that stays it is overwritten unchecked —
// break carries its reads to the loop's exit, not past the if.
func breakRead(xs []int) error {
	var last error
	for _, x := range xs {
		err := open()
		if x == 0 {
			last = err
			break
		}
		err = open() // want "err is reassigned before the error assigned at line \d+ is checked"
		if err != nil {
			return err
		}
	}
	return last
}

// continueRead is the same shape through continue: the skipped iteration
// read the error, the one that goes on did not.
func continueRead(xs []int) (n int, err error) {
	for _, x := range xs {
		e := open()
		if x == 0 {
			n++
			if e != nil {
				n--
			}
			continue
		}
		e = open() // want "e is reassigned before the error assigned at line \d+ is checked"
		if e != nil {
			return n, e
		}
	}
	return n, nil
}
