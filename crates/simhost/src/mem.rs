//! Physical and virtual memory accounting for a simulated host.
//!
//! The monitor's rules can condition on "available memory and percentage of
//! available memory for both virtual and physical memory" (§3.1), so the host
//! tracks per-process resident and virtual reservations against fixed totals.

/// Per-process memory reservation in kilobytes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemUse {
    /// Resident (physical) kilobytes.
    pub rss_kb: u64,
    /// Virtual kilobytes (>= rss).
    pub vsz_kb: u64,
}

/// Memory state of one host.
#[derive(Debug, Clone)]
pub struct Memory {
    phys_total_kb: u64,
    swap_total_kb: u64,
    /// Reservations by owner pid: a few per host, so a flat vector searched
    /// linearly (a hash table would cost ~200 B per host for ~5 entries).
    by_owner: Vec<(u64, MemUse)>,
    rss_used_kb: u64,
    vsz_used_kb: u64,
}

/// Error returned when a reservation would exceed physical + swap capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Kilobytes requested.
    pub requested_kb: u64,
    /// Kilobytes actually available.
    pub available_kb: u64,
}

impl Memory {
    /// Create with the given physical and swap sizes (kilobytes).
    pub fn new(phys_total_kb: u64, swap_total_kb: u64) -> Self {
        Memory {
            phys_total_kb,
            swap_total_kb,
            by_owner: Vec::new(),
            rss_used_kb: 0,
            vsz_used_kb: 0,
        }
    }

    /// Total physical memory.
    pub fn phys_total_kb(&self) -> u64 {
        self.phys_total_kb
    }

    /// Physical kilobytes not resident. Overcommitted residency reports 0.
    pub fn phys_avail_kb(&self) -> u64 {
        self.phys_total_kb.saturating_sub(self.rss_used_kb)
    }

    /// Fraction of physical memory available, in `[0, 1]`.
    pub fn phys_avail_frac(&self) -> f64 {
        self.phys_avail_kb() as f64 / self.phys_total_kb as f64
    }

    /// Virtual kilobytes (physical + swap) not reserved.
    pub fn virt_avail_kb(&self) -> u64 {
        (self.phys_total_kb + self.swap_total_kb).saturating_sub(self.vsz_used_kb)
    }

    /// Fraction of virtual memory available, in `[0, 1]`.
    pub fn virt_avail_frac(&self) -> f64 {
        self.virt_avail_kb() as f64 / (self.phys_total_kb + self.swap_total_kb) as f64
    }

    fn position(&self, owner: u64) -> Option<usize> {
        self.by_owner.iter().position(|&(o, _)| o == owner)
    }

    /// Reservation of one owner (keyed by pid).
    pub fn usage_of(&self, owner: u64) -> MemUse {
        self.position(owner)
            .map_or_else(MemUse::default, |i| self.by_owner[i].1)
    }

    /// Set the reservation for `owner`, replacing any previous one.
    ///
    /// Fails when virtual capacity would be exceeded; physical residency is
    /// clamped by paging (rss capped at what fits) like a real VM subsystem.
    pub fn reserve(&mut self, owner: u64, mut use_: MemUse) -> Result<(), OutOfMemory> {
        use_.vsz_kb = use_.vsz_kb.max(use_.rss_kb);
        let slot = self.position(owner);
        let prev = slot.map_or_else(MemUse::default, |i| self.by_owner[i].1);
        let new_vsz = self.vsz_used_kb - prev.vsz_kb + use_.vsz_kb;
        let virt_total = self.phys_total_kb + self.swap_total_kb;
        if new_vsz > virt_total {
            return Err(OutOfMemory {
                requested_kb: use_.vsz_kb,
                available_kb: virt_total - (self.vsz_used_kb - prev.vsz_kb),
            });
        }
        // Page out whatever does not fit physically.
        let phys_free =
            self.phys_total_kb - (self.rss_used_kb - prev.rss_kb).min(self.phys_total_kb);
        use_.rss_kb = use_.rss_kb.min(phys_free);
        self.rss_used_kb = self.rss_used_kb - prev.rss_kb + use_.rss_kb;
        self.vsz_used_kb = new_vsz;
        match slot {
            Some(i) => self.by_owner[i].1 = use_,
            None => self.by_owner.push((owner, use_)),
        }
        Ok(())
    }

    /// Release everything owned by `owner`.
    pub fn release(&mut self, owner: u64) {
        if let Some(i) = self.position(owner) {
            let (_, prev) = self.by_owner.swap_remove(i);
            self.rss_used_kb -= prev.rss_kb;
            self.vsz_used_kb -= prev.vsz_kb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_host_is_all_available() {
        let m = Memory::new(131_072, 262_144); // 128 MB phys + 256 MB swap
        assert_eq!(m.phys_avail_kb(), 131_072);
        assert_eq!(m.virt_avail_kb(), 393_216);
        assert_eq!(m.phys_avail_frac(), 1.0);
    }

    #[test]
    fn reserve_and_release() {
        let mut m = Memory::new(1000, 1000);
        m.reserve(
            1,
            MemUse {
                rss_kb: 400,
                vsz_kb: 600,
            },
        )
        .unwrap();
        assert_eq!(m.phys_avail_kb(), 600);
        assert_eq!(m.virt_avail_kb(), 1400);
        m.release(1);
        assert_eq!(m.phys_avail_kb(), 1000);
        assert_eq!(m.virt_avail_kb(), 2000);
    }

    #[test]
    fn re_reserve_replaces() {
        let mut m = Memory::new(1000, 0);
        m.reserve(
            1,
            MemUse {
                rss_kb: 300,
                vsz_kb: 300,
            },
        )
        .unwrap();
        m.reserve(
            1,
            MemUse {
                rss_kb: 500,
                vsz_kb: 500,
            },
        )
        .unwrap();
        assert_eq!(m.phys_avail_kb(), 500);
        assert_eq!(m.usage_of(1).rss_kb, 500);
    }

    #[test]
    fn vsz_at_least_rss() {
        let mut m = Memory::new(1000, 1000);
        m.reserve(
            1,
            MemUse {
                rss_kb: 400,
                vsz_kb: 100,
            },
        )
        .unwrap();
        assert_eq!(m.usage_of(1).vsz_kb, 400);
    }

    #[test]
    fn oom_when_virtual_exhausted() {
        let mut m = Memory::new(500, 500);
        m.reserve(
            1,
            MemUse {
                rss_kb: 0,
                vsz_kb: 900,
            },
        )
        .unwrap();
        let err = m
            .reserve(
                2,
                MemUse {
                    rss_kb: 0,
                    vsz_kb: 200,
                },
            )
            .unwrap_err();
        assert_eq!(err.available_kb, 100);
    }

    #[test]
    fn residency_pages_out_when_physical_full() {
        let mut m = Memory::new(500, 1000);
        m.reserve(
            1,
            MemUse {
                rss_kb: 400,
                vsz_kb: 400,
            },
        )
        .unwrap();
        // Only 100 kb physical left; the rest of this rss is paged.
        m.reserve(
            2,
            MemUse {
                rss_kb: 300,
                vsz_kb: 300,
            },
        )
        .unwrap();
        assert_eq!(m.usage_of(2).rss_kb, 100);
        assert_eq!(m.phys_avail_kb(), 0);
        assert_eq!(m.virt_avail_kb(), 1500 - 700);
    }

    #[test]
    fn release_unknown_owner_is_noop() {
        let mut m = Memory::new(100, 0);
        m.release(42);
        assert_eq!(m.phys_avail_kb(), 100);
    }
}
