package explore

// ReadAllStreams looks up every lane and schedule entry c holds,
// reading the entries a LoadFile left unread, and returns how many
// lookups failed.
func ReadAllStreams(c *Cache) int { return len(readAllEntries(c)) }
