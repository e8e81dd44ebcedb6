//! Physical-address to DRAM-address mapping schemes.
//!
//! The paper uses a *Minimalist Open-Page* (MOP) mapping with 8 consecutive cache lines
//! per row before interleaving across banks and channels (Table II). MOP keeps a small
//! amount of spatial locality in the row buffer (good for streaming) while spreading
//! accesses across banks for parallelism.
//!
//! Beyond the paper's fixed schemes, [`AddressMapping::BitInterleaved`] expresses an
//! *arbitrary* per-field bit interleaving (which physical-address bits form the
//! channel, rank, bank-group, bank, row and column indices), the shape every real
//! device mapping takes — e.g. antmicro's rowhammer-tester `DRAMAddressConverter` or
//! the DRAMA-reversed controller functions. Every variant also supports
//! [`AddressMapping::encode`], the exact inverse of [`AddressMapping::decode`] at
//! cache-line granularity, so traces of decoded locations can be re-encoded and
//! device mappings can be cross-checked both ways.

use crate::address::{DramAddress, PhysicalAddress, RowId};
use crate::error::DramError;
use crate::organization::DramOrganization;

/// Maximum number of physical-address bits a single [`BitField`] can gather.
pub const MAX_FIELD_BITS: usize = 24;

/// An ordered set of bit positions within a cache-line index.
///
/// `positions()[i]` is the line-index bit that forms bit `i` (LSB-first) of the
/// extracted field value. Positions need not be contiguous — that is the point:
/// real controllers scatter bank and channel bits between column and row bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitField {
    len: u8,
    pos: [u8; MAX_FIELD_BITS],
}

impl BitField {
    /// A field of zero bits (always extracts 0; inserting ignores the value).
    pub const fn empty() -> Self {
        Self {
            len: 0,
            pos: [0; MAX_FIELD_BITS],
        }
    }

    /// Builds a field from explicit bit positions (LSB of the field first).
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_FIELD_BITS`] positions are given, if any position
    /// is ≥ 64, or if a position repeats.
    pub fn new(positions: &[u8]) -> Self {
        assert!(
            positions.len() <= MAX_FIELD_BITS,
            "bit field limited to {MAX_FIELD_BITS} bits, got {}",
            positions.len()
        );
        let mut pos = [0u8; MAX_FIELD_BITS];
        let mut seen = 0u64;
        for (i, &p) in positions.iter().enumerate() {
            assert!(p < 64, "bit position {p} out of range");
            assert!(seen & (1 << p) == 0, "bit position {p} repeated");
            seen |= 1 << p;
            pos[i] = p;
        }
        Self {
            len: positions.len() as u8,
            pos,
        }
    }

    /// A contiguous run of `len` bits starting at `offset` (the common case).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`MAX_FIELD_BITS`] or the run reaches bit 64,
    /// the same positions [`BitField::new`] refuses.
    pub fn contiguous(offset: u8, len: u8) -> Self {
        assert!((len as usize) <= MAX_FIELD_BITS, "bit field too wide");
        let mut pos = [0u8; MAX_FIELD_BITS];
        for (i, p) in pos[..len as usize].iter_mut().enumerate() {
            let bit = offset as usize + i;
            assert!(bit < 64, "bit position {bit} out of range");
            *p = bit as u8;
        }
        Self { len, pos }
    }

    /// Number of bits in the field.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the field has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit positions, LSB of the field first.
    pub fn positions(&self) -> &[u8] {
        &self.pos[..self.len as usize]
    }

    /// Exclusive upper bound of values this field can represent (`2^len`).
    pub fn cardinality(&self) -> u64 {
        1u64 << self.len
    }

    /// Gathers this field's bits out of `line`, batching contiguous runs so the
    /// common mostly-contiguous layouts cost a handful of shifts.
    #[inline]
    pub fn extract(&self, line: u64) -> u64 {
        let mut out = 0u64;
        let mut i = 0usize;
        let n = self.len as usize;
        while i < n {
            let start = self.pos[i];
            let mut run = 1usize;
            while i + run < n && self.pos[i + run] == start + run as u8 {
                run += 1;
            }
            let mask = if run == 64 {
                u64::MAX
            } else {
                (1u64 << run) - 1
            };
            out |= ((line >> start) & mask) << i;
            i += run;
        }
        out
    }

    /// Scatters the low `len` bits of `value` into their line-index positions
    /// (the exact inverse of [`BitField::extract`]).
    #[inline]
    pub fn insert(&self, value: u64) -> u64 {
        let mut out = 0u64;
        let mut i = 0usize;
        let n = self.len as usize;
        while i < n {
            let start = self.pos[i];
            let mut run = 1usize;
            while i + run < n && self.pos[i + run] == start + run as u8 {
                run += 1;
            }
            let mask = if run == 64 {
                u64::MAX
            } else {
                (1u64 << run) - 1
            };
            out |= ((value >> i) & mask) << start;
            i += run;
        }
        out
    }
}

/// A complete per-field bit interleaving: which cache-line-index bits form each
/// DRAM coordinate.
///
/// Positions refer to bits of the *line index* (physical byte address divided by
/// the organization's cache-line size); the byte offset within a line never
/// participates in DRAM routing. [`BitInterleaving::validate`] checks that the
/// fields exactly tile the organization's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitInterleaving {
    /// Bits forming the channel index.
    pub channel: BitField,
    /// Bits forming the rank index within the channel.
    pub rank: BitField,
    /// Bits forming the bank-group index within the rank.
    pub bank_group: BitField,
    /// Bits forming the bank index within the bank group.
    pub bank: BitField,
    /// Bits forming the row index within the bank.
    pub row: BitField,
    /// Bits forming the column (cache-line) index within the row.
    pub column: BitField,
}

/// Log2 of a dimension that must be a power of two for bit-sliced mappings.
fn log2_exact(value: u64, component: &'static str) -> Result<u8, DramError> {
    if value.is_power_of_two() {
        Ok(value.trailing_zeros() as u8)
    } else {
        Err(DramError::InvalidMapping {
            reason: "dimension is not a power of two",
            component,
        })
    }
}

impl BitInterleaving {
    /// The paper's MOP scheme as an explicit bit interleaving: `lines_per_chunk`
    /// low column bits, then channel, bank, bank-group, rank, the remaining
    /// column bits, and finally the row bits. Bit-exact to
    /// [`AddressMapping::Mop`] on every address (see the equivalence tests).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidMapping`] unless every organization dimension
    /// and `lines_per_chunk` is a power of two.
    pub fn mop(org: &DramOrganization, lines_per_chunk: u32) -> Result<Self, DramError> {
        let c_low = log2_exact(lines_per_chunk as u64, "lines_per_chunk")?;
        let dims = MappingDims::of(org)?;
        if c_low > dims.column {
            return Err(DramError::InvalidMapping {
                reason: "chunk larger than a row",
                component: "lines_per_chunk",
            });
        }
        let mut at = 0u8;
        let mut take = |len: u8| {
            let f = BitField::contiguous(at, len);
            at += len;
            f
        };
        let col_lo = take(c_low);
        let channel = take(dims.channel);
        let bank = take(dims.bank);
        let bank_group = take(dims.bank_group);
        let rank = take(dims.rank);
        let col_hi = take(dims.column - c_low);
        let row = take(dims.row);
        let mut column_positions = [0u8; MAX_FIELD_BITS];
        let n_lo = col_lo.len();
        column_positions[..n_lo].copy_from_slice(col_lo.positions());
        column_positions[n_lo..n_lo + col_hi.len()].copy_from_slice(col_hi.positions());
        let column = BitField::new(&column_positions[..n_lo + col_hi.len()]);
        Ok(Self {
            channel,
            rank,
            bank_group,
            bank,
            row,
            column,
        })
    }

    /// [`AddressMapping::RowInterleaved`] as an explicit bit interleaving:
    /// column, channel, bank, bank-group, rank, row (LSB to MSB).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidMapping`] unless every dimension is a power
    /// of two.
    pub fn row_interleaved(org: &DramOrganization) -> Result<Self, DramError> {
        let dims = MappingDims::of(org)?;
        let mut at = 0u8;
        let mut take = |len: u8| {
            let f = BitField::contiguous(at, len);
            at += len;
            f
        };
        let column = take(dims.column);
        let channel = take(dims.channel);
        let bank = take(dims.bank);
        let bank_group = take(dims.bank_group);
        let rank = take(dims.rank);
        let row = take(dims.row);
        Ok(Self {
            channel,
            rank,
            bank_group,
            bank,
            row,
            column,
        })
    }

    /// [`AddressMapping::CachelineInterleaved`] as an explicit bit interleaving:
    /// channel, bank, bank-group, rank, column, row (LSB to MSB).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidMapping`] unless every dimension is a power
    /// of two.
    pub fn cacheline_interleaved(org: &DramOrganization) -> Result<Self, DramError> {
        let dims = MappingDims::of(org)?;
        let mut at = 0u8;
        let mut take = |len: u8| {
            let f = BitField::contiguous(at, len);
            at += len;
            f
        };
        let channel = take(dims.channel);
        let bank = take(dims.bank);
        let bank_group = take(dims.bank_group);
        let rank = take(dims.rank);
        let column = take(dims.column);
        let row = take(dims.row);
        Ok(Self {
            channel,
            rank,
            bank_group,
            bank,
            row,
            column,
        })
    }

    /// The rowhammer-tester `DRAMAddressConverter` `ROW_BANK_COL` layout at line
    /// granularity: column low, then the flat bank bits (bank-in-group, group,
    /// rank), then the row bits — no channel interleaving (single-channel DMA
    /// space).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidMapping`] unless every dimension is a power
    /// of two or the organization has more than one channel.
    pub fn row_bank_col(org: &DramOrganization) -> Result<Self, DramError> {
        let dims = MappingDims::of(org)?;
        if dims.channel != 0 {
            return Err(DramError::InvalidMapping {
                reason: "ROW_BANK_COL has no channel bits",
                component: "channels",
            });
        }
        let mut at = 0u8;
        let mut take = |len: u8| {
            let f = BitField::contiguous(at, len);
            at += len;
            f
        };
        let column = take(dims.column);
        let bank = take(dims.bank);
        let bank_group = take(dims.bank_group);
        let rank = take(dims.rank);
        let row = take(dims.row);
        Ok(Self {
            channel: BitField::empty(),
            rank,
            bank_group,
            bank,
            row,
            column,
        })
    }

    /// Checks that this interleaving exactly tiles `org`: every field is as wide
    /// as its dimension, the dimensions are powers of two, and the fields'
    /// positions form a permutation of the line-index bits.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidMapping`] naming the offending component.
    pub fn validate(&self, org: &DramOrganization) -> Result<(), DramError> {
        let dims = MappingDims::of(org)?;
        let checks = [
            (&self.channel, dims.channel, "channel"),
            (&self.rank, dims.rank, "rank"),
            (&self.bank_group, dims.bank_group, "bank_group"),
            (&self.bank, dims.bank, "bank"),
            (&self.row, dims.row, "row"),
            (&self.column, dims.column, "column"),
        ];
        let mut seen = 0u64;
        let total: u8 = checks.iter().map(|(_, len, _)| len).sum();
        for (field, len, component) in checks {
            if field.len() != len as usize {
                return Err(DramError::InvalidMapping {
                    reason: "field width does not match the organization",
                    component,
                });
            }
            for &p in field.positions() {
                if p >= total {
                    return Err(DramError::InvalidMapping {
                        reason: "bit position beyond the address width",
                        component,
                    });
                }
                if seen & (1u64 << p) != 0 {
                    return Err(DramError::InvalidMapping {
                        reason: "bit position used by two fields",
                        component,
                    });
                }
                seen |= 1u64 << p;
            }
        }
        Ok(())
    }
}

/// Field widths (log2 of each dimension) of a power-of-two organization.
struct MappingDims {
    channel: u8,
    rank: u8,
    bank_group: u8,
    bank: u8,
    row: u8,
    column: u8,
}

impl MappingDims {
    fn of(org: &DramOrganization) -> Result<Self, DramError> {
        Ok(Self {
            channel: log2_exact(org.channels as u64, "channels")?,
            rank: log2_exact(org.ranks as u64, "ranks")?,
            bank_group: log2_exact(org.bank_groups as u64, "bank_groups")?,
            bank: log2_exact(org.banks_per_group as u64, "banks_per_group")?,
            row: log2_exact(org.rows_per_bank as u64, "rows_per_bank")?,
            column: log2_exact(org.columns_per_row as u64, "columns_per_row")?,
        })
    }
}

/// Address-mapping schemes supported by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressMapping {
    /// Minimalist Open Page: `lines_per_chunk` consecutive cache lines map to the same
    /// row, then the next chunk moves to the next channel/bank. The paper uses 8.
    Mop {
        /// Consecutive cache lines kept in the same row before interleaving.
        lines_per_chunk: u32,
    },
    /// Entire rows are consecutive in the physical address space (maximizes row-buffer
    /// locality; baseline for open-page studies).
    RowInterleaved,
    /// Consecutive cache lines alternate across channels and banks (minimizes
    /// row-buffer locality; close to a closed-page system).
    CachelineInterleaved,
    /// Arbitrary per-field bit interleaving: each DRAM coordinate is gathered from
    /// an explicit list of line-index bit positions. This is the general form every
    /// real controller/device mapping takes; the constructors on
    /// [`BitInterleaving`] reproduce the three schemes above exactly.
    BitInterleaved(BitInterleaving),
}

impl Default for AddressMapping {
    fn default() -> Self {
        AddressMapping::Mop { lines_per_chunk: 8 }
    }
}

impl AddressMapping {
    /// The paper's default mapping (MOP with 8 lines per chunk).
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// The paper's MOP scheme expressed as an explicit [`BitInterleaved`] mapping
    /// for `org` (bit-exact to [`AddressMapping::Mop`]).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidMapping`] unless every dimension is a power of
    /// two (see [`BitInterleaving::mop`]).
    pub fn bit_interleaved_mop(
        org: &DramOrganization,
        lines_per_chunk: u32,
    ) -> Result<Self, DramError> {
        Ok(AddressMapping::BitInterleaved(BitInterleaving::mop(
            org,
            lines_per_chunk,
        )?))
    }

    /// [`AddressMapping::RowInterleaved`] as an explicit bit interleaving.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidMapping`] unless every dimension is a power of
    /// two.
    pub fn bit_interleaved_row(org: &DramOrganization) -> Result<Self, DramError> {
        Ok(AddressMapping::BitInterleaved(
            BitInterleaving::row_interleaved(org)?,
        ))
    }

    /// [`AddressMapping::CachelineInterleaved`] as an explicit bit interleaving.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidMapping`] unless every dimension is a power of
    /// two.
    pub fn bit_interleaved_cacheline(org: &DramOrganization) -> Result<Self, DramError> {
        Ok(AddressMapping::BitInterleaved(
            BitInterleaving::cacheline_interleaved(org)?,
        ))
    }

    /// Decodes a physical address into a DRAM location under organization `org`.
    ///
    /// This is the reference decode: it re-derives the organization's geometry
    /// on every call. Loops that decode many addresses under one organization
    /// use [`AddressMapping::decoder`], which returns exactly what this does.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::AddressOutOfRange`] if the address lies beyond the
    /// capacity described by `org`, or if a [`AddressMapping::BitInterleaved`]
    /// field decodes a component outside the organization's bounds.
    pub fn decode(
        &self,
        addr: PhysicalAddress,
        org: &DramOrganization,
    ) -> Result<DramAddress, DramError> {
        // `(x % d, x / d)`, via mask/shift when `d` is a power of two. Real
        // geometries are pure bit routing, so the decode — one call per trace
        // record on the ingest path — should cost shifts, not a chain of
        // hardware divisions.
        #[inline(always)]
        fn rem_div(x: u64, d: u64) -> (u64, u64) {
            if d.is_power_of_two() {
                (x & (d - 1), x >> d.trailing_zeros())
            } else {
                (x % d, x / d)
            }
        }
        if addr.as_u64() >= org.capacity_bytes() {
            return Err(DramError::AddressOutOfRange {
                component: "physical address",
                value: addr.as_u64(),
                limit: org.capacity_bytes(),
            });
        }
        let (_, line) = rem_div(addr.as_u64(), org.line_bytes as u64);
        let channels = org.channels as u64;
        let banks = org.banks_per_channel() as u64;
        let cols = org.columns_per_row as u64;
        let rows = org.rows_per_bank as u64;

        let (channel, bank, row, column) = match *self {
            AddressMapping::Mop { lines_per_chunk } => {
                let chunk_lines = lines_per_chunk as u64;
                let (low_col, rest) = rem_div(line, chunk_lines);
                let (channel, rest) = rem_div(rest, channels);
                let (bank, rest) = rem_div(rest, banks);
                let (_, chunks_per_row) = rem_div(cols, chunk_lines);
                let (high_col, row) = rem_div(rest, chunks_per_row);
                (channel, bank, row, high_col * chunk_lines + low_col)
            }
            AddressMapping::RowInterleaved => {
                let (column, rest) = rem_div(line, cols);
                let (channel, rest) = rem_div(rest, channels);
                let (bank, row) = rem_div(rest, banks);
                (channel, bank, row, column)
            }
            AddressMapping::CachelineInterleaved => {
                let (channel, rest) = rem_div(line, channels);
                let (bank, rest) = rem_div(rest, banks);
                let (column, row) = rem_div(rest, cols);
                (channel, bank, row, column)
            }
            AddressMapping::BitInterleaved(ref spec) => {
                let channel = spec.channel.extract(line);
                let rank = spec.rank.extract(line);
                let bank_group = spec.bank_group.extract(line);
                let bank = spec.bank.extract(line);
                let row = spec.row.extract(line);
                let column = spec.column.extract(line);
                for (value, limit, component) in [
                    (channel, channels, "channel"),
                    (rank, org.ranks as u64, "rank"),
                    (bank_group, org.bank_groups as u64, "bank_group"),
                    (bank, org.banks_per_group as u64, "bank"),
                    (row, rows, "row"),
                    (column, cols, "column"),
                ] {
                    if value >= limit {
                        return Err(DramError::AddressOutOfRange {
                            component,
                            value,
                            limit,
                        });
                    }
                }
                return Ok(DramAddress {
                    channel: channel as u8,
                    rank: rank as u8,
                    bank_group: bank_group as u8,
                    bank: bank as u8,
                    row: row as RowId,
                    column: column as u32,
                });
            }
        };

        if row >= rows {
            return Err(DramError::AddressOutOfRange {
                component: "row",
                value: row,
                limit: rows,
            });
        }

        // Unfold the flat bank index back into rank / bank group / bank.
        let banks_per_group = org.banks_per_group as u64;
        let groups = org.bank_groups as u64;
        let per_rank = banks_per_group * groups;
        let (within_rank, rank) = rem_div(bank, per_rank);
        let (bank_in_group, bank_group) = rem_div(within_rank, banks_per_group);

        Ok(DramAddress {
            channel: channel as u8,
            rank: rank as u8,
            bank_group: bank_group as u8,
            bank: bank_in_group as u8,
            row: row as RowId,
            column: column as u32,
        })
    }

    /// Compiles this mapping against `org` for decoding many addresses.
    ///
    /// [`AddressDecoder::decode`] returns exactly what
    /// [`AddressMapping::decode`] returns, every `Ok` and every `Err`. For
    /// [`AddressMapping::Mop`] on a power-of-two organization the geometry is
    /// worked out here, once, so an in-range address costs a few shifts and
    /// masks; every other mapping and geometry calls the reference decode.
    pub fn decoder(&self, org: &DramOrganization) -> AddressDecoder {
        let mop = match *self {
            AddressMapping::Mop { lines_per_chunk } => MopPlan::new(org, lines_per_chunk),
            _ => None,
        };
        AddressDecoder {
            mapping: *self,
            org: org.clone(),
            mop,
        }
    }

    /// Encodes a DRAM location back into the physical address of its cache line —
    /// the exact inverse of [`AddressMapping::decode`]: for every line-aligned
    /// address `a`, `encode(decode(a)) == a`, and for every in-bounds location
    /// `d`, `decode(encode(d)) == d`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::AddressOutOfRange`] if any component of `addr` lies
    /// outside the organization's bounds.
    pub fn encode(
        &self,
        addr: DramAddress,
        org: &DramOrganization,
    ) -> Result<PhysicalAddress, DramError> {
        for (value, limit, component) in [
            (addr.channel as u64, org.channels as u64, "channel"),
            (addr.rank as u64, org.ranks as u64, "rank"),
            (addr.bank_group as u64, org.bank_groups as u64, "bank_group"),
            (addr.bank as u64, org.banks_per_group as u64, "bank"),
            (addr.row as u64, org.rows_per_bank as u64, "row"),
            (addr.column as u64, org.columns_per_row as u64, "column"),
        ] {
            if value >= limit {
                return Err(DramError::AddressOutOfRange {
                    component,
                    value,
                    limit,
                });
            }
        }
        let channels = org.channels as u64;
        let banks = org.banks_per_channel() as u64;
        let cols = org.columns_per_row as u64;
        let flat_bank = addr.flat_bank(org.banks_per_group, org.bank_groups) as u64;
        let channel = addr.channel as u64;
        let row = addr.row as u64;
        let column = addr.column as u64;

        let line = match *self {
            AddressMapping::Mop { lines_per_chunk } => {
                let chunk_lines = lines_per_chunk as u64;
                let chunks_per_row = cols / chunk_lines;
                let low_col = column % chunk_lines;
                let high_col = column / chunk_lines;
                let rest = (row * chunks_per_row + high_col) * banks + flat_bank;
                (rest * channels + channel) * chunk_lines + low_col
            }
            AddressMapping::RowInterleaved => {
                ((row * banks + flat_bank) * channels + channel) * cols + column
            }
            AddressMapping::CachelineInterleaved => {
                ((row * cols + column) * banks + flat_bank) * channels + channel
            }
            AddressMapping::BitInterleaved(ref spec) => {
                spec.channel.insert(channel)
                    | spec.rank.insert(addr.rank as u64)
                    | spec.bank_group.insert(addr.bank_group as u64)
                    | spec.bank.insert(addr.bank as u64)
                    | spec.row.insert(row)
                    | spec.column.insert(column)
            }
        };
        Ok(PhysicalAddress::new(line * org.line_bytes as u64))
    }

    /// Returns the number of consecutive bytes that map to the same row before the
    /// mapping switches to another bank (the "chunk" size seen by streaming code).
    pub fn contiguous_row_bytes(&self, org: &DramOrganization) -> u64 {
        match *self {
            AddressMapping::Mop { lines_per_chunk } => {
                lines_per_chunk as u64 * org.line_bytes as u64
            }
            AddressMapping::RowInterleaved => org.row_bytes(),
            AddressMapping::CachelineInterleaved => org.line_bytes as u64,
            AddressMapping::BitInterleaved(ref spec) => {
                // The run of column bits starting at line-index bit 0 is the
                // contiguous span that stays within one row.
                let mut contiguous_lines = 0u8;
                while spec.column.positions().contains(&contiguous_lines) {
                    contiguous_lines += 1;
                }
                (1u64 << contiguous_lines) * org.line_bytes as u64
            }
        }
    }
}

/// An [`AddressMapping`] compiled against one organization by
/// [`AddressMapping::decoder`], for loops that decode every record of a run.
#[derive(Debug, Clone)]
pub struct AddressDecoder {
    mapping: AddressMapping,
    org: DramOrganization,
    /// Shifts and masks of a power-of-two MOP layout; `None` sends every
    /// address to the reference decode.
    mop: Option<MopPlan>,
}

impl AddressDecoder {
    /// Decodes `addr` exactly as [`AddressMapping::decode`] does under the
    /// organization this decoder was compiled for.
    ///
    /// # Errors
    ///
    /// The errors of [`AddressMapping::decode`], unchanged.
    #[inline]
    pub fn decode(&self, addr: PhysicalAddress) -> Result<DramAddress, DramError> {
        match self.mop {
            // Below the capacity every coordinate of a power-of-two MOP layout
            // is in range, so the plan never has to produce an error.
            Some(ref plan) if addr.as_u64() < plan.capacity => Ok(plan.decode(addr.as_u64())),
            _ => self.mapping.decode(addr, &self.org),
        }
    }
}

/// [`AddressMapping::Mop`] on a power-of-two organization as fixed bit runs of
/// the line index, LSB first: the chunk's column bits, the channel, the flat
/// bank (bank, bank group, rank), the remaining column bits and the row.
/// These are the steps of the reference decode with every division by a power
/// of two already resolved to a shift.
#[derive(Debug, Clone, Copy)]
struct MopPlan {
    /// Exclusive bound on byte addresses the plan decodes.
    capacity: u64,
    line_shift: u32,
    chunk_bits: u32,
    chunk_mask: u64,
    channel_shift: u32,
    channel_mask: u64,
    flat_bank_shift: u32,
    flat_bank_mask: u64,
    bank_mask: u64,
    group_shift: u32,
    group_mask: u64,
    rank_shift: u32,
    column_hi_shift: u32,
    column_hi_mask: u64,
    row_shift: u32,
}

impl MopPlan {
    /// The plan for `org`, or `None` when a dimension, the line size or
    /// `lines_per_chunk` is not a power of two, the chunk is wider than a
    /// row, or the address does not fit in 63 bits.
    fn new(org: &DramOrganization, lines_per_chunk: u32) -> Option<Self> {
        let dims = MappingDims::of(org).ok()?;
        let line_shift = u32::from(log2_exact(org.line_bytes as u64, "line_bytes").ok()?);
        let chunk_bits = u32::from(log2_exact(lines_per_chunk as u64, "lines_per_chunk").ok()?);
        let column_bits = u32::from(dims.column);
        if chunk_bits > column_bits {
            return None;
        }
        let (bank, group, rank) = (
            u32::from(dims.bank),
            u32::from(dims.bank_group),
            u32::from(dims.rank),
        );
        let channel_shift = chunk_bits;
        let flat_bank_shift = channel_shift + u32::from(dims.channel);
        let column_hi_shift = flat_bank_shift + bank + group + rank;
        let row_shift = column_hi_shift + column_bits - chunk_bits;
        // Below 2^63 `capacity_bytes` is exact and no shift can overflow.
        if line_shift + row_shift + u32::from(dims.row) > 63 {
            return None;
        }
        let mask = |bits: u32| (1u64 << bits) - 1;
        Some(Self {
            capacity: org.capacity_bytes(),
            line_shift,
            chunk_bits,
            chunk_mask: mask(chunk_bits),
            channel_shift,
            channel_mask: mask(u32::from(dims.channel)),
            flat_bank_shift,
            flat_bank_mask: mask(bank + group + rank),
            bank_mask: mask(bank),
            group_shift: bank,
            group_mask: mask(group),
            rank_shift: bank + group,
            column_hi_shift,
            column_hi_mask: mask(column_bits - chunk_bits),
            row_shift,
        })
    }

    /// Decodes an address below `capacity`.
    #[inline(always)]
    fn decode(&self, addr: u64) -> DramAddress {
        let line = addr >> self.line_shift;
        let flat_bank = (line >> self.flat_bank_shift) & self.flat_bank_mask;
        let column_hi = (line >> self.column_hi_shift) & self.column_hi_mask;
        DramAddress {
            channel: ((line >> self.channel_shift) & self.channel_mask) as u8,
            rank: (flat_bank >> self.rank_shift) as u8,
            bank_group: ((flat_bank >> self.group_shift) & self.group_mask) as u8,
            bank: (flat_bank & self.bank_mask) as u8,
            row: (line >> self.row_shift) as RowId,
            column: ((column_hi << self.chunk_bits) | (line & self.chunk_mask)) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn org() -> DramOrganization {
        DramOrganization::small()
    }

    fn all_fixed_mappings() -> [AddressMapping; 3] {
        [
            AddressMapping::paper_default(),
            AddressMapping::RowInterleaved,
            AddressMapping::CachelineInterleaved,
        ]
    }

    #[test]
    fn mop_keeps_eight_lines_in_one_row() {
        let org = org();
        let map = AddressMapping::paper_default();
        let base = map.decode(PhysicalAddress::new(0), &org).unwrap();
        for i in 0..8u64 {
            let a = map.decode(PhysicalAddress::new(i * 64), &org).unwrap();
            assert_eq!(a.row, base.row);
            assert_eq!(a.channel, base.channel);
            assert_eq!((a.bank_group, a.bank), (base.bank_group, base.bank));
        }
        // The 9th line moves to a different channel or bank.
        let ninth = map.decode(PhysicalAddress::new(8 * 64), &org).unwrap();
        assert!(
            ninth.channel != base.channel
                || (ninth.bank_group, ninth.bank) != (base.bank_group, base.bank)
        );
    }

    #[test]
    fn out_of_range_is_rejected() {
        let org = org();
        let map = AddressMapping::paper_default();
        let too_big = PhysicalAddress::new(org.capacity_bytes());
        assert!(matches!(
            map.decode(too_big, &org),
            Err(DramError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn contiguous_row_bytes_matches_scheme() {
        let org = org();
        assert_eq!(
            AddressMapping::paper_default().contiguous_row_bytes(&org),
            512
        );
        assert_eq!(
            AddressMapping::RowInterleaved.contiguous_row_bytes(&org),
            org.row_bytes()
        );
        assert_eq!(
            AddressMapping::CachelineInterleaved.contiguous_row_bytes(&org),
            64
        );
        // The bit-sliced constructors agree with their arithmetic counterparts.
        assert_eq!(
            AddressMapping::bit_interleaved_mop(&org, 8)
                .unwrap()
                .contiguous_row_bytes(&org),
            512
        );
        assert_eq!(
            AddressMapping::bit_interleaved_row(&org)
                .unwrap()
                .contiguous_row_bytes(&org),
            org.row_bytes()
        );
        assert_eq!(
            AddressMapping::bit_interleaved_cacheline(&org)
                .unwrap()
                .contiguous_row_bytes(&org),
            64
        );
    }

    #[test]
    fn bit_field_extract_insert_round_trip() {
        let f = BitField::new(&[0, 1, 2, 7, 9, 10]);
        for v in 0..f.cardinality() {
            let scattered = f.insert(v);
            assert_eq!(f.extract(scattered), v);
        }
        // Scattered bits land where requested.
        assert_eq!(f.insert(0b111111), 0b0000_0110_1000_0111);
        assert_eq!(BitField::empty().extract(u64::MAX), 0);
        assert_eq!(BitField::empty().insert(u64::MAX), 0);
    }

    #[test]
    fn bit_field_rejects_bad_positions() {
        assert!(std::panic::catch_unwind(|| BitField::new(&[1, 1])).is_err());
        assert!(std::panic::catch_unwind(|| BitField::new(&[64])).is_err());
        assert!(std::panic::catch_unwind(|| BitField::contiguous(u8::MAX, 2)).is_err());
    }

    #[test]
    #[should_panic(expected = "bit position 64 out of range")]
    fn contiguous_field_rejects_positions_past_bit_63() {
        // 56..=63 is the highest run that fits; one bit more is refused.
        assert_eq!(
            BitField::contiguous(56, 8).positions(),
            &[56, 57, 58, 59, 60, 61, 62, 63]
        );
        BitField::contiguous(60, 8);
    }

    /// Organizations the compiled decoder is checked on: the two presets, one
    /// with several ranks and channels, and a non-power-of-two one that gets
    /// no MOP plan.
    fn decoder_organizations() -> [DramOrganization; 4] {
        [
            DramOrganization::small(),
            DramOrganization::baseline(),
            DramOrganization {
                channels: 2,
                ranks: 4,
                ..DramOrganization::small()
            },
            DramOrganization {
                bank_groups: 3,
                rows_per_bank: 3000,
                columns_per_row: 96,
                ..DramOrganization::small()
            },
        ]
    }

    /// Every mapping a decoder can be compiled from on `org`: the arithmetic
    /// schemes, plus each bit-interleaved constructor `org` admits.
    fn decoder_mappings(org: &DramOrganization) -> Vec<AddressMapping> {
        let mut maps = vec![
            AddressMapping::Mop { lines_per_chunk: 8 },
            AddressMapping::Mop { lines_per_chunk: 4 },
            AddressMapping::RowInterleaved,
            AddressMapping::CachelineInterleaved,
        ];
        maps.extend(
            [
                AddressMapping::bit_interleaved_mop(org, 8),
                AddressMapping::bit_interleaved_row(org),
                AddressMapping::bit_interleaved_cacheline(org),
                BitInterleaving::row_bank_col(org).map(AddressMapping::BitInterleaved),
            ]
            .into_iter()
            .flatten(),
        );
        maps
    }

    #[test]
    fn constructors_validate_against_their_organization() {
        let org = DramOrganization::baseline();
        for spec in [
            BitInterleaving::mop(&org, 8).unwrap(),
            BitInterleaving::row_interleaved(&org).unwrap(),
            BitInterleaving::cacheline_interleaved(&org).unwrap(),
        ] {
            spec.validate(&org).unwrap();
        }
        let single = DramOrganization {
            channels: 1,
            ..DramOrganization::baseline()
        };
        BitInterleaving::row_bank_col(&single)
            .unwrap()
            .validate(&single)
            .unwrap();
        // ROW_BANK_COL refuses multi-channel organizations.
        assert!(matches!(
            BitInterleaving::row_bank_col(&org),
            Err(DramError::InvalidMapping { .. })
        ));
    }

    #[test]
    fn validate_rejects_overlap_and_wrong_width() {
        let org = org();
        let mut spec = BitInterleaving::row_interleaved(&org).unwrap();
        let good = spec;
        // Overlap: point a row bit at a column bit.
        spec.row = BitField::new(&{
            let mut p: Vec<u8> = good.row.positions().to_vec();
            p[0] = good.column.positions()[0];
            p
        });
        assert!(matches!(
            spec.validate(&org),
            Err(DramError::InvalidMapping { .. })
        ));
        // Wrong width: drop a row bit.
        let mut narrow = good;
        narrow.row = BitField::new(&good.row.positions()[1..]);
        assert!(matches!(
            narrow.validate(&org),
            Err(DramError::InvalidMapping { .. })
        ));
    }

    #[test]
    fn non_power_of_two_dimension_is_rejected() {
        let bad = DramOrganization {
            columns_per_row: 96,
            ..DramOrganization::small()
        };
        assert!(matches!(
            AddressMapping::bit_interleaved_row(&bad),
            Err(DramError::InvalidMapping { .. })
        ));
    }

    #[test]
    fn encode_rejects_out_of_bounds_components() {
        let org = org();
        let bad = DramAddress {
            row: org.rows_per_bank,
            ..DramAddress::default()
        };
        for map in all_fixed_mappings() {
            assert!(matches!(
                map.encode(bad, &org),
                Err(DramError::AddressOutOfRange { .. })
            ));
        }
    }

    #[test]
    fn row_bank_col_matches_converter_layout() {
        // A LiteX-style organization: 2^10 cols/row at 64B lines folds the
        // converter's colbits into line-index bits; check the field order.
        let org = DramOrganization {
            channels: 1,
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 2,
            rows_per_bank: 1 << 14,
            columns_per_row: 1 << 7,
            line_bytes: 64,
        };
        let spec = BitInterleaving::row_bank_col(&org).unwrap();
        let map = AddressMapping::BitInterleaved(spec);
        // Lowest line bits are column bits; bank bits sit between column and row.
        let a = map.decode(PhysicalAddress::new(64), &org).unwrap();
        assert_eq!((a.row, a.bank, a.bank_group, a.column), (0, 0, 0, 1));
        let b = map
            .decode(PhysicalAddress::new(64 * org.columns_per_row as u64), &org)
            .unwrap();
        assert_eq!((b.row, b.bank, b.column), (0, 1, 0));
        let r = map
            .decode(
                PhysicalAddress::new(
                    64 * org.columns_per_row as u64 * org.banks_per_channel() as u64,
                ),
                &org,
            )
            .unwrap();
        assert_eq!((r.row, r.bank, r.bank_group, r.column), (1, 0, 0, 0));
    }

    proptest! {
        /// Decoding is injective at cache-line granularity: two distinct line
        /// addresses never map to the same (channel, bank, row, column).
        #[test]
        fn decode_is_injective(a in 0u64..1_000_000, b in 0u64..1_000_000) {
            prop_assume!(a != b);
            let org = DramOrganization::small();
            for map in [AddressMapping::paper_default(), AddressMapping::RowInterleaved, AddressMapping::CachelineInterleaved] {
                let pa = PhysicalAddress::new(a * 64);
                let pb = PhysicalAddress::new(b * 64);
                if pa.as_u64() < org.capacity_bytes() && pb.as_u64() < org.capacity_bytes() {
                    let da = map.decode(pa, &org).unwrap();
                    let db = map.decode(pb, &org).unwrap();
                    prop_assert_ne!(da, db);
                }
            }
        }

        /// All decoded components stay within the organization's bounds.
        #[test]
        fn decode_stays_in_bounds(line in 0u64..4_000_000) {
            let org = DramOrganization::small();
            let map = AddressMapping::paper_default();
            let addr = PhysicalAddress::new(line * 64);
            prop_assume!(addr.as_u64() < org.capacity_bytes());
            let d = map.decode(addr, &org).unwrap();
            prop_assert!(d.channel < org.channels);
            prop_assert!(d.rank < org.ranks);
            prop_assert!(d.bank_group < org.bank_groups);
            prop_assert!(d.bank < org.banks_per_group);
            prop_assert!(d.row < org.rows_per_bank);
            prop_assert!(d.column < org.columns_per_row);
        }

        /// The bit-sliced constructors are bit-exact to the arithmetic schemes
        /// they generalize, on every in-bounds address; and a compiled decoder
        /// returns the reference decode's whole `Result`, errors included, for
        /// every mapping and organization.
        #[test]
        fn bit_interleaved_constructors_match_arithmetic(
            line in 0u64..4_000_000,
            fraction in 0u64..1 << 32,
        ) {
            for org in decoder_organizations() {
                let capacity = org.capacity_bytes();
                // Anywhere in [0, 2 × capacity), so half the probes are errors.
                let probe = ((2 * capacity as u128 * fraction as u128) >> 32) as u64;
                let has_mop_plan = MappingDims::of(&org).is_ok();
                for map in decoder_mappings(&org) {
                    let decoder = map.decoder(&org);
                    if let AddressMapping::Mop { .. } = map {
                        prop_assert_eq!(decoder.mop.is_some(), has_mop_plan);
                    }
                    for a in [probe, 0, capacity - 1, capacity, u64::MAX] {
                        let a = PhysicalAddress::new(a);
                        prop_assert_eq!(decoder.decode(a), map.decode(a, &org));
                    }
                }
            }

            let org = DramOrganization::small();
            let addr = PhysicalAddress::new(line * 64);
            prop_assume!(addr.as_u64() < org.capacity_bytes());
            let pairs = [
                (AddressMapping::paper_default(), AddressMapping::bit_interleaved_mop(&org, 8).unwrap()),
                (AddressMapping::RowInterleaved, AddressMapping::bit_interleaved_row(&org).unwrap()),
                (AddressMapping::CachelineInterleaved, AddressMapping::bit_interleaved_cacheline(&org).unwrap()),
            ];
            for (arith, sliced) in pairs {
                prop_assert_eq!(arith.decode(addr, &org).unwrap(), sliced.decode(addr, &org).unwrap());
            }
        }

        /// encode is the exact inverse of decode on every variant: line-aligned
        /// round trip `encode(decode(a)) == a`.
        #[test]
        fn encode_inverts_decode(line in 0u64..4_000_000) {
            let org = DramOrganization::small();
            let addr = PhysicalAddress::new(line * 64);
            prop_assume!(addr.as_u64() < org.capacity_bytes());
            let mut maps = all_fixed_mappings().to_vec();
            maps.push(AddressMapping::bit_interleaved_mop(&org, 8).unwrap());
            maps.push(AddressMapping::bit_interleaved_row(&org).unwrap());
            maps.push(AddressMapping::bit_interleaved_cacheline(&org).unwrap());
            for map in maps {
                let d = map.decode(addr, &org).unwrap();
                prop_assert_eq!(map.encode(d, &org).unwrap(), addr);
            }
        }

        /// ... and the other direction: `decode(encode(d)) == d` for every
        /// in-bounds DRAM location.
        #[test]
        fn decode_inverts_encode(
            channel in 0u8..1,
            bank_group in 0u8..2,
            bank in 0u8..2,
            row in 0u32..(1 << 12),
            column in 0u32..128,
        ) {
            let org = DramOrganization::small();
            let d = DramAddress { channel, rank: 0, bank_group, bank, row, column };
            let mut maps = all_fixed_mappings().to_vec();
            maps.push(AddressMapping::bit_interleaved_mop(&org, 8).unwrap());
            maps.push(AddressMapping::bit_interleaved_row(&org).unwrap());
            maps.push(AddressMapping::bit_interleaved_cacheline(&org).unwrap());
            for map in maps {
                let a = map.encode(d, &org).unwrap();
                prop_assert_eq!(map.decode(a, &org).unwrap(), d);
            }
        }
    }
}
