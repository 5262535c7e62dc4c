package txn

// LatestCommitTS returns the commit timestamp of the newest committed
// version, or 0 if none.
func (c *Chain[T]) LatestCommitTS() TS {
	if v := c.latestCommitted(); v != nil {
		return TS(v.commitTS.Load())
	}
	return 0
}
