// A slot-program patch row that moves 4 bytes of an 8-byte address into
// an 8-byte WQE field: the upper half of the descriptor field would keep
// whatever the previous slot left there.
pub const DESC_SIZE: u64 = 64;

pub mod field_offset {
    pub const LADDR: u64 = 8;
}

pub mod rec {
    pub const SRC: u64 = 4;
}

fn pat(meta_off: u64, width: u32, field: u64) -> (u64, u32, u64) {
    (meta_off, width, field)
}

pub fn table(rec_off: u64) -> [(u64, u32, u64); 1] {
    [pat(rec_off + rec::SRC, 4, field_offset::LADDR)]
}
