package bake

// Persisted reports whether a region has been persisted.
func (p *Provider) Persisted(rid uint64) bool {
	r, ok := p.region(rid)
	return ok && r.persisted
}
