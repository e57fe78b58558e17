package xipc

// RemoveTarget detaches a target.
func (r *Router) RemoveTarget(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.targets, name)
	if r.hub != nil {
		r.hub.removeTarget(name)
	}
}
