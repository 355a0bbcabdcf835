//go:build !unix

package bytepool

import "errors"

// mapReadOnly has no portable equivalent off unix: timing-only runs need
// the read-only anonymous mapping that phantom storage is made of.
func mapReadOnly(int) ([]byte, error) {
	return nil, errors.New("phantom storage needs a unix mmap")
}
