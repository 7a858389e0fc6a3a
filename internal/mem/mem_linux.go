//go:build linux

package mem

import (
	"errors"
	"syscall"
	"unsafe"
)

// osMapped: this platform really maps and unmaps pages; decommit returns
// RSS to the OS.
const osMapped = true

// osReserve maps winSize bytes of inaccessible address space. PROT_NONE +
// MAP_NORESERVE means the reservation costs neither RSS nor commit
// charge; any touch before Commit faults. When hugepage alignment is
// requested the mapping is padded by one huge-page extent and the
// returned view starts on a HugePageSize boundary (see HugePageSize).
func osReserve(winSize uint64, huge bool) (raw, buf []byte, err error) {
	size := winSize
	if huge {
		size += HugePageSize
	}
	raw, err = syscall.Mmap(-1, 0, int(size),
		syscall.PROT_NONE,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, nil, err
	}
	buf = raw
	if huge {
		base := uintptr(unsafe.Pointer(&raw[0]))
		pad := uint64(0)
		if rem := uint64(base) % HugePageSize; rem != 0 {
			pad = HugePageSize - rem
		}
		buf = raw[pad : pad+winSize : pad+winSize]
	}
	return raw, buf, nil
}

// osProtectRW opens the window for access. Nothing else has happened
// yet when it fails, so a failed commit is all-or-nothing: the window is
// still fenced, a later retry starts clean.
func osProtectRW(buf []byte) error {
	return syscall.Mprotect(buf, syscall.PROT_READ|syscall.PROT_WRITE)
}

// osAdviseHuge requests THP coalescing. A failure (kernel built without
// THP, or an injected fault) is the first rung of the degradation
// ladder: the caller counts it and the window stays on base 4KiB pages.
func osAdviseHuge(buf []byte) error {
	return syscall.Madvise(buf, syscall.MADV_HUGEPAGE)
}

// madvPopulateWrite is MADV_POPULATE_WRITE (Linux ≥ 5.14), newer than
// the syscall package's constant table.
const madvPopulateWrite = 23

// populate pre-faults buf writable in one call. A variable so tests can
// drive osTouch's fallback and failure branches on any kernel.
var populate = func(buf []byte) error { return syscall.Madvise(buf, madvPopulateWrite) }

// osTouch makes every page of the window resident before the commit
// returns — committed bytes are meant to reconcile with RSS, not with a
// lazy first-fault promise. Runs after the hugepage advise so the
// pre-fault can materialize 2MiB extents.
//
// MADV_POPULATE_WRITE does it in one call, faulting the range in inside
// the kernel rather than taking one page fault per page. An EINTR (a
// signal during a long populate) is retried; the pages already faulted
// in stay, so the retry only finishes the rest. EINVAL means the kernel
// predates the advice: fellBack reports it and the one-byte-per-page
// touch loop runs instead. Any other error — ENOMEM when the machine or
// the memory cgroup is out of pages, EFAULT, EHWPOISON on a poisoned
// page — is returned and the caller fails the commit; the touch loop
// has no such way out, it would take the process down instead.
func osTouch(buf []byte) (fellBack bool, err error) {
	for {
		err = populate(buf)
		if !errors.Is(err, syscall.EINTR) {
			break
		}
	}
	if !errors.Is(err, syscall.EINVAL) {
		return false, err
	}
	step := syscall.Getpagesize()
	for i := 0; i < len(buf); i += step {
		buf[i] = 0
	}
	return true, nil
}

// osDecommit gives the pages back (MADV_DONTNEED zero-fills the range and
// drops the RSS immediately) and fences the window off again, so a
// use-after-retire is a fault instead of a silent read of stale payload.
func osDecommit(buf []byte) error {
	if err := syscall.Madvise(buf, syscall.MADV_DONTNEED); err != nil {
		return err
	}
	return syscall.Mprotect(buf, syscall.PROT_NONE)
}

// osRelease unmaps the whole original reservation.
func osRelease(raw []byte) { _ = syscall.Munmap(raw) }
