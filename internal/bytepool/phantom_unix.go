//go:build unix

package bytepool

import "syscall"

// mapReadOnly maps n bytes of private anonymous memory readable only. No
// page is ever written, so the mapping never becomes resident beyond the
// kernel's shared zero page.
func mapReadOnly(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ, syscall.MAP_PRIVATE|syscall.MAP_ANON)
}
