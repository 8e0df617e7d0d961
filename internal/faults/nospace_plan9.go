package faults

import "errors"

// errNoSpace is the error KindENOSPC wraps. Plan 9 has no errno values,
// so a disk-full condition is a plain error there.
var errNoSpace = errors.New("no space left on device")
