package ssg

// MemberFor deterministically maps a key onto a member. An empty view
// has no member to return, so ok is false. No service shards by view
// any more (the elastic sdskv router uses its rendezvous ring); the view
// tests keep it as their probe of a view's determinism and coverage.
func (v *View) MemberFor(key []byte) (Member, bool) {
	if len(v.Members) == 0 {
		return Member{}, false
	}
	var h uint64 = 1469598103934665603
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 33
	return v.Members[h%uint64(len(v.Members))], true
}
