//go:build !plan9

package faults

import "syscall"

// errNoSpace is the error KindENOSPC wraps: the platform's disk-full errno.
var errNoSpace error = syscall.ENOSPC
