// Fixture: `dropped-refusal` fires on `.ok()` after a group issue, and
// not on an allowed copy of it or on `.ok()` after anything else.
fn unlock(lock: &Lock, w: &mut World, eng: &mut Engine<World>, done: OnLock) {
    lock.wr_unlock(w, eng, done).ok();
}

fn best_effort(c: &Client, w: &mut World, eng: &mut Engine<World>, done: OnDone) {
    // A hint the next op repeats: hl-lint: allow(dropped-refusal)
    GroupClient::gcas(c, w, eng, 0, 0, 1, 0b111, done).ok();
}

fn parse(s: &str) -> Option<u64> {
    s.parse::<u64>().ok()
}
