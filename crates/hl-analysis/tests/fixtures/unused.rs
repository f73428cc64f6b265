// Fixture: `unused` fires on a function nothing mentions, and not on a
// called one, an allowed one, a trait-impl method, `main`, or a
// `#[cfg(test)]` helper.
pub fn called_below() -> u32 {
    7
}

pub fn nobody_calls_this() -> u32 {
    called_below()
}

// Kept for the replay tool that loads it by symbol name.
// hl-lint: allow(unused)
pub fn kept_on_purpose() {}

pub struct Probe;

impl std::fmt::Display for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "probe")
    }
}

fn main() {}

#[cfg(test)]
mod tests {
    fn only_a_test_helper() {}
}
