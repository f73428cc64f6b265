// Fixture: `libm-in-datapath` fires on a transcendental float call in
// live code, and not on an allowed set-up site, on `#[cfg(test)]`
// items, or on float math that is a single instruction.
fn per_packet(u: f64, sigma: f64) -> f64 {
    (sigma * u).exp()
}

fn build_table(sigma: f64, z: f64) -> f64 {
    // Runs once per distinct sigma at set-up: hl-lint: allow(libm-in-datapath)
    (sigma * z).exp()
}

fn cheap(x: f64) -> f64 {
    x.sqrt() + x.powi(2)
}

#[cfg(test)]
fn reference(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * u2.cos()
}

#[cfg(test)]
mod tests {
    fn helper(x: f64) -> f64 {
        x.powf(0.5).sin()
    }
}
