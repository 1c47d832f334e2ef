package durable

import (
	"errors"
	"fmt"
	"os"
)

// Op names one class of disk operation. Every call the store and its WAL make
// into the file system is one of these, made through one wrapper of disk.
type Op uint8

const (
	OpMkdir Op = iota
	OpReadFile
	OpReadDir
	OpCreate
	OpWrite
	OpSync // fsync of a file
	OpClose
	OpRename
	OpRemove
	OpTruncate
	OpSyncDir // fsync of a directory, making its entries durable
	// NumOps counts the classes above.
	NumOps = iota
)

var opNames = [NumOps]string{"mkdir", "read-file", "read-dir", "create", "write", "sync", "close", "rename", "remove", "truncate", "sync-dir"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Hook intercepts every disk operation of the store and its WAL for
// deterministic fault injection (tests only; nil in production). Disk is
// consulted before op runs on path; for OpWrite, b holds the bytes about to
// be written, and the returned bytes are written instead — a fault may
// shorten them (torn write) or flip them (media corruption). A nil error lets
// the operation run. A non-nil error fails it: the operation does not run,
// except that a write's returned bytes still land — a process that crashed
// having already damaged the medium. The error reaches the same check a real
// failure of the operation would.
type Hook interface {
	Disk(op Op, path string, b []byte) ([]byte, error)
}

// ErrInjectedCrash is the one sentinel a fault hook wraps to simulate a
// process crash at the hooked operation. The backend does not treat it
// specially — any hook error aborts the operation and surfaces to the
// caller — but tests assert on it to tell injected crashes from real I/O
// failures.
var ErrInjectedCrash = errors.New("durable: injected crash")

// disk is the one seam between the durable layer and the file system: each
// method consults the hook, runs its os call only if the hook allows it, and
// returns one error for the call site to check.
type disk struct{ hook Hook }

// consult asks the hook about one operation; without a hook, b passes
// unchanged.
func (d disk) consult(op Op, path string, b []byte) ([]byte, error) {
	if d.hook == nil {
		return b, nil
	}
	return d.hook.Disk(op, path, b)
}

func (d disk) mkdir(dir string) error {
	if _, err := d.consult(OpMkdir, dir, nil); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

func (d disk) readFile(path string) ([]byte, error) {
	if _, err := d.consult(OpReadFile, path, nil); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

func (d disk) readDir(dir string) ([]os.DirEntry, error) {
	if _, err := d.consult(OpReadDir, dir, nil); err != nil {
		return nil, err
	}
	return os.ReadDir(dir)
}

// create opens path for writing, empty.
func (d disk) create(path string) (*os.File, error) {
	if _, err := d.consult(OpCreate, path, nil); err != nil {
		return nil, err
	}
	return os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

// write writes b to f, or the bytes the hook substitutes, and returns how
// many landed.
func (d disk) write(f *os.File, b []byte) (int, error) {
	b, inject := d.consult(OpWrite, f.Name(), b)
	n, err := f.Write(b)
	if err == nil {
		err = inject
	}
	return n, err
}

func (d disk) sync(f *os.File) error {
	if _, err := d.consult(OpSync, f.Name(), nil); err != nil {
		return err
	}
	return f.Sync()
}

// syncFile fsyncs the file at path, which no handle of the caller holds open.
func (d disk) syncFile(path string) error {
	if _, err := d.consult(OpSync, path, nil); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	return errors.Join(f.Sync(), f.Close())
}

func (d disk) close(f *os.File) error {
	if _, err := d.consult(OpClose, f.Name(), nil); err != nil {
		return err
	}
	return f.Close()
}

func (d disk) rename(from, to string) error {
	if _, err := d.consult(OpRename, to, nil); err != nil {
		return err
	}
	return os.Rename(from, to)
}

func (d disk) remove(path string) error {
	if _, err := d.consult(OpRemove, path, nil); err != nil {
		return err
	}
	return os.Remove(path)
}

func (d disk) truncate(path string, size int64) error {
	if _, err := d.consult(OpTruncate, path, nil); err != nil {
		return err
	}
	return os.Truncate(path, size)
}

// syncDir makes dir's entries — files created, renamed into it or removed
// from it — durable.
func (d disk) syncDir(dir string) error {
	if _, err := d.consult(OpSyncDir, dir, nil); err != nil {
		return err
	}
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(f.Sync(), f.Close())
}

// writeFileAtomic publishes b at path via the classic crash-safe sequence:
// write a temp file, fsync it, close it, rename over path. The containing
// directory is fsynced by the caller (once per checkpoint) rather than per
// file.
func (d disk) writeFileAtomic(path string, b []byte) error {
	tmp := path + tmpSuffix
	f, err := d.create(tmp)
	if err != nil {
		return err
	}
	if _, err := d.write(f, b); err != nil {
		return errors.Join(err, d.close(f))
	}
	if err := d.sync(f); err != nil {
		return errors.Join(err, d.close(f))
	}
	if err := d.close(f); err != nil {
		return err
	}
	return d.rename(tmp, path)
}
