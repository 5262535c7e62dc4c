package wal

// FailRename makes every Rename fail with err (nil to disarm).
func (f *FailFS) FailRename(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.renameErr = err
}
