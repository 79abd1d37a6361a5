//! A hashed timer wheel over driver-clock milliseconds.
//!
//! Deadlines hash into `slots` by time, the cursor walks the slots as time
//! passes, and each visited slot is drained of the entries that are
//! actually due (entries scheduled whole laps ahead stay put until their
//! lap comes around); nothing is allocated or sorted per tick.
//!
//! The node runtime does not use it: its tick thread has one deadline, the
//! next probe, which is also its loss clock. The wheel's only caller is
//! ncbench's `transport.wheel_ns_per_timer` micro-benchmark; once that
//! measurement goes, so does this module.

/// A fixed-size hashed timer wheel over driver-clock milliseconds.
#[derive(Debug)]
pub struct TimerWheel<T> {
    slots: Vec<Vec<(u64, T)>>,
    granularity_ms: u64,
    /// Wheel time already swept, in milliseconds.
    swept_ms: u64,
}

impl<T> TimerWheel<T> {
    /// Creates a wheel of `slots` buckets, each `granularity_ms` wide. The
    /// wheel spans `slots × granularity_ms` per lap; longer deadlines simply
    /// wait additional laps.
    ///
    /// # Panics
    ///
    /// Panics when `slots` is zero or `granularity_ms` is zero.
    pub fn new(slots: usize, granularity_ms: u64) -> Self {
        assert!(slots > 0, "a wheel needs at least one slot");
        assert!(granularity_ms > 0, "granularity must be positive");
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            granularity_ms,
            swept_ms: 0,
        }
    }

    fn slot_of(&self, at_ms: u64) -> usize {
        ((at_ms / self.granularity_ms) as usize) % self.slots.len()
    }

    /// Schedules `token` to fire at `at_ms`. Deadlines at or before the last
    /// sweep fire on the very next [`advance`](TimerWheel::advance).
    pub fn schedule(&mut self, at_ms: u64, token: T) {
        // A deadline the sweep has already passed would otherwise wait a
        // whole lap; park it in the slot the next sweep visits first.
        let effective = at_ms.max(self.swept_ms);
        let slot = self.slot_of(effective);
        self.slots[slot].push((at_ms, token));
    }

    /// Sweeps the wheel up to `now_ms`, appending every due token to `due`
    /// (in slot order; tokens within a slot fire in insertion order).
    pub fn advance(&mut self, now_ms: u64, due: &mut Vec<T>) {
        if now_ms < self.swept_ms {
            return;
        }
        let lap = self.slots.len() as u64;
        let from_tick = self.swept_ms / self.granularity_ms;
        let to_tick = now_ms / self.granularity_ms;
        // Visiting more than one full lap would re-visit slots; cap it.
        let steps = (to_tick - from_tick).min(lap);
        for offset in 0..=steps {
            let index = ((from_tick + offset) % lap) as usize;
            let slot = &mut self.slots[index];
            let mut k = 0;
            while k < slot.len() {
                if slot[k].0 <= now_ms {
                    due.push(slot.swap_remove(k).1);
                } else {
                    k += 1;
                }
            }
        }
        self.swept_ms = now_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(wheel: &mut TimerWheel<&'static str>, now: u64) -> Vec<&'static str> {
        let mut due = Vec::new();
        wheel.advance(now, &mut due);
        due
    }

    #[test]
    fn tokens_fire_at_their_deadline_not_before() {
        let mut wheel = TimerWheel::new(64, 1);
        wheel.schedule(10, "a");
        wheel.schedule(25, "b");
        assert!(drain(&mut wheel, 9).is_empty());
        assert_eq!(drain(&mut wheel, 10), vec!["a"]);
        assert!(drain(&mut wheel, 24).is_empty());
        assert_eq!(drain(&mut wheel, 100), vec!["b"]);
        assert!(drain(&mut wheel, u64::MAX).is_empty(), "nothing is left");
    }

    #[test]
    fn past_deadlines_fire_on_the_next_sweep() {
        let mut wheel = TimerWheel::new(8, 5);
        let mut due = Vec::new();
        wheel.advance(1_000, &mut due);
        wheel.schedule(3, "late");
        wheel.advance(1_001, &mut due);
        assert_eq!(due, vec!["late"]);
    }

    #[test]
    fn deadlines_beyond_one_lap_wait_their_lap() {
        // 8 slots × 1 ms = 8 ms lap; a deadline 20 ms out shares a slot with
        // earlier ticks but must not fire until 20 ms.
        let mut wheel = TimerWheel::new(8, 1);
        wheel.schedule(20, "far");
        for now in 0..20 {
            assert!(drain(&mut wheel, now).is_empty(), "fired early at {now}");
        }
        assert_eq!(drain(&mut wheel, 20), vec!["far"]);
    }

    #[test]
    fn a_large_jump_fires_everything_due() {
        let mut wheel = TimerWheel::new(16, 2);
        for at in [1u64, 7, 13, 64, 65, 900] {
            wheel.schedule(at, "t");
        }
        let mut due = Vec::new();
        wheel.advance(1_000, &mut due);
        assert_eq!(due.len(), 6);
        assert!(drain(&mut wheel, u64::MAX).is_empty(), "nothing is left");
    }
}
