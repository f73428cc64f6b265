// Fixture: `dropped-refusal` fires on `let _ =` over a group issue, and
// not on an allowed opportunistic drop, a handled refusal, a `let _ =`
// over anything else, or a `#[cfg(test)]` item.
fn commit(client: &Client, w: &mut World, eng: &mut Engine<World>, done: OnDone) {
    let _ = client.gwrite(w, eng, 0, &[1, 2, 3, 4], true, done);
}

fn truncate(log: &mut Log, w: &mut World, eng: &mut Engine<World>, to: u64) {
    // Opportunistic: the next put issues it again.
    // hl-lint: allow(dropped-refusal)
    let _ = log.truncate_to(w, eng, to, Box::new(|_, _, _| {}));
}

fn retried(client: &Client, w: &mut World, eng: &mut Engine<World>, done: OnDone) {
    if client.gmemcpy(w, eng, 0, 8, 8, false, done).is_err() {
        retry_later(eng);
    }
    let _ = mem.flush(0, 64);
}

#[cfg(test)]
fn drill(client: &Client, w: &mut World, eng: &mut Engine<World>) {
    let _ = client.gflush(w, eng, 0, 8, Box::new(|_, _, _| {}));
}
