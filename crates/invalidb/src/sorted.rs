//! The order-maintaining layer for stateful queries.
//!
//! "With additional ORDER BY, LIMIT or OFFSET clauses, however, a formerly
//! stateless query becomes stateful in the sense that the matching status
//! of a given record becomes dependent on the matching status of other
//! objects. For sorted queries, InvaliDB is consequently required to keep
//! the result ordered and maintain additional information such as the
//! entirety of all items in the offset. To capture result permutations,
//! changeIndex events are emitted ... Our current implementation maintains
//! order-related state in a separate processing layer partitioned by
//! query." (§4.1)

use std::sync::Arc;

use quaestor_document::Document;
use quaestor_query::{matcher, Query, QueryKey};
use quaestor_store::{WriteEvent, WriteKind};

use crate::event::{Notification, NotificationEvent};

/// Full ordered state of one stateful query.
///
/// Keeps *all* predicate matches ordered (not only the visible window) so
/// that offset/limit membership can be decided locally, then reports
/// events relative to the **windowed** result the cache actually holds.
pub struct SortedQueryState {
    query: Query,
    key: QueryKey,
    /// All matching documents, kept sorted by the query's sort spec.
    matches: Vec<Arc<Document>>,
}

impl std::fmt::Debug for SortedQueryState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SortedQueryState")
            .field("query", &self.key.as_str())
            .field("matches", &self.matches.len())
            .finish()
    }
}

fn doc_id(doc: &Document) -> &str {
    doc.get("_id").and_then(|v| v.as_str()).unwrap_or("")
}

impl SortedQueryState {
    /// Seed from the initial (full, unwindowed) matching set.
    pub fn new(query: Query, key: QueryKey, initial: Vec<Arc<Document>>) -> SortedQueryState {
        let mut state = SortedQueryState {
            query,
            key,
            matches: initial,
        };
        state
            .matches
            .sort_by(|a, b| matcher::compare_docs(a, b, &state.query.sort));
        state
    }

    /// The query key.
    pub fn key(&self) -> &QueryKey {
        &self.key
    }

    /// The visible window `[offset, offset+limit)` of record ids.
    pub fn window_ids(&self) -> Vec<String> {
        let start = self.query.offset.min(self.matches.len());
        let end = match self.query.limit {
            Some(l) => (start + l).min(self.matches.len()),
            None => self.matches.len(),
        };
        self.matches[start..end]
            .iter()
            .map(|d| doc_id(d).to_owned())
            .collect()
    }

    fn position_in_window(window: &[String], id: &str) -> Option<usize> {
        window.iter().position(|w| w == id)
    }

    /// Process one after-image; emits events describing how the *visible
    /// window* changed.
    pub fn process(&mut self, event: &WriteEvent) -> Vec<Notification> {
        self.ingest(event, false)
    }

    /// [`process`](Self::process), or, for a `superseded` write (one that
    /// arrived after a newer write to the same record), only its events:
    /// the window the image *would* produce is compared with the current
    /// one, and the state is left as it is (it already reflects the newer
    /// image).
    pub fn ingest(&mut self, event: &WriteEvent, superseded: bool) -> Vec<Notification> {
        if event.table.as_ref() != self.query.table {
            return Vec::new();
        }
        let before_window = self.window_ids();

        // Update the full ordered match set.
        let old_pos = self
            .matches
            .iter()
            .position(|d| doc_id(d) == event.id.as_ref());
        let is_match =
            event.kind != WriteKind::Delete && matcher::matches(&self.query.filter, &event.image);
        let old_doc = old_pos.map(|pos| self.matches.remove(pos));
        let mut inserted_at = None;
        if is_match {
            let doc = event.image.clone();
            let insert_at = self.matches.partition_point(|d| {
                matcher::compare_docs(d, &doc, &self.query.sort) == std::cmp::Ordering::Less
            });
            self.matches.insert(insert_at, doc);
            inserted_at = Some(insert_at);
        }

        let after_window = self.window_ids();
        if superseded {
            if let Some(at) = inserted_at {
                self.matches.remove(at);
            }
            if let (Some(pos), Some(doc)) = (old_pos, old_doc) {
                self.matches.insert(pos, doc);
            }
        }
        let mut out = Vec::new();
        let was_visible = Self::position_in_window(&before_window, &event.id);
        let is_visible = Self::position_in_window(&after_window, &event.id);
        let push = |out: &mut Vec<Notification>, ev: NotificationEvent, id: &str| {
            out.push(Notification {
                query: self.key.clone(),
                event: ev,
                record_id: Arc::from(id),
                at: event.at,
            });
        };
        match (was_visible, is_visible) {
            (None, Some(_)) => push(&mut out, NotificationEvent::Add, &event.id),
            (Some(_), None) => push(&mut out, NotificationEvent::Remove, &event.id),
            (Some(a), Some(b)) if a != b => {
                push(
                    &mut out,
                    NotificationEvent::ChangeIndex { from: a, to: b },
                    &event.id,
                );
            }
            (Some(_), Some(_)) => push(&mut out, NotificationEvent::Change, &event.id),
            (None, None) => {}
        }
        // Records displaced into/out of the window by this write (e.g. a
        // new top element pushes the old last element out of LIMIT).
        for id in &after_window {
            if id.as_str() != event.id.as_ref() && !before_window.contains(id) {
                push(&mut out, NotificationEvent::Add, id);
            }
        }
        for id in &before_window {
            if id.as_str() != event.id.as_ref() && !after_window.contains(id) {
                push(&mut out, NotificationEvent::Remove, id);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::write_event;
    use quaestor_document::doc;
    use quaestor_query::{Filter, Order};

    fn scored(id: &str, score: i64) -> Document {
        doc! { "_id" => id, "score" => score, "kind" => "post" }
    }

    fn top2() -> (Query, QueryKey) {
        let q = Query::table("posts")
            .filter(Filter::eq("kind", "post"))
            .sort_by("score", Order::Desc)
            .limit(2);
        let k = QueryKey::of(&q);
        (q, k)
    }

    fn seeded() -> SortedQueryState {
        let (q, k) = top2();
        SortedQueryState::new(
            q,
            k,
            vec![
                Arc::new(scored("a", 30)),
                Arc::new(scored("b", 20)),
                Arc::new(scored("c", 10)),
            ],
        )
    }

    #[test]
    fn window_is_top_k() {
        let s = seeded();
        assert_eq!(s.window_ids(), vec!["a", "b"]);
    }

    #[test]
    fn new_leader_displaces_window_tail() {
        let mut s = seeded();
        let n = s.process(&write_event(
            "posts",
            "d",
            quaestor_store::WriteKind::Insert,
            scored("d", 99),
            1,
        ));
        assert_eq!(s.window_ids(), vec!["d", "a"]);
        // d entered the window, b left it.
        assert!(n
            .iter()
            .any(|x| x.record_id.as_ref() == "d" && x.event == NotificationEvent::Add));
        assert!(n
            .iter()
            .any(|x| x.record_id.as_ref() == "b" && x.event == NotificationEvent::Remove));
    }

    #[test]
    fn below_window_insert_is_silent() {
        let mut s = seeded();
        let n = s.process(&write_event(
            "posts",
            "z",
            quaestor_store::WriteKind::Insert,
            scored("z", 1),
            1,
        ));
        assert!(n.is_empty(), "invisible to the cached window");
        assert_eq!(s.window_ids(), vec!["a", "b"]);
    }

    #[test]
    fn score_swap_emits_change_index() {
        let mut s = seeded();
        // b overtakes a: 20 -> 40.
        let n = s.process(&write_event(
            "posts",
            "b",
            quaestor_store::WriteKind::Update,
            scored("b", 40),
            1,
        ));
        assert_eq!(s.window_ids(), vec!["b", "a"]);
        assert!(n
            .iter()
            .any(|x| matches!(x.event, NotificationEvent::ChangeIndex { from: 1, to: 0 })));
    }

    #[test]
    fn in_place_update_is_change() {
        let mut s = seeded();
        let mut updated = scored("a", 30);
        updated.insert("title".into(), quaestor_document::Value::str("new"));
        let n = s.process(&write_event(
            "posts",
            "a",
            quaestor_store::WriteKind::Update,
            updated,
            1,
        ));
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].event, NotificationEvent::Change);
    }

    #[test]
    fn window_member_delete_promotes_successor() {
        let mut s = seeded();
        let n = s.process(&write_event(
            "posts",
            "a",
            quaestor_store::WriteKind::Delete,
            scored("a", 30),
            1,
        ));
        assert_eq!(s.window_ids(), vec!["b", "c"]);
        assert!(n
            .iter()
            .any(|x| x.record_id.as_ref() == "a" && x.event == NotificationEvent::Remove));
        assert!(n
            .iter()
            .any(|x| x.record_id.as_ref() == "c" && x.event == NotificationEvent::Add));
    }

    #[test]
    fn offset_windows_work() {
        let q = Query::table("posts")
            .filter(Filter::eq("kind", "post"))
            .sort_by("score", Order::Desc)
            .offset(1)
            .limit(1);
        let k = QueryKey::of(&q);
        let mut s = SortedQueryState::new(
            q,
            k,
            vec![Arc::new(scored("a", 30)), Arc::new(scored("b", 20))],
        );
        assert_eq!(s.window_ids(), vec!["b"]);
        // A new leader shifts everything right: a drops into the window.
        let n = s.process(&write_event(
            "posts",
            "d",
            quaestor_store::WriteKind::Insert,
            scored("d", 99),
            1,
        ));
        assert_eq!(s.window_ids(), vec!["a"]);
        assert!(n
            .iter()
            .any(|x| x.record_id.as_ref() == "a" && x.event == NotificationEvent::Add));
        assert!(n
            .iter()
            .any(|x| x.record_id.as_ref() == "b" && x.event == NotificationEvent::Remove));
    }

    #[test]
    fn insert_exactly_at_window_tail_boundary() {
        // Window is [0, 2) over a/b/c. A record that sorts exactly at the
        // boundary (ties with the current tail on score) lands *outside*
        // the window thanks to the deterministic _id tiebreak — it must
        // be silent, and the window must not change.
        let mut s = seeded();
        let n = s.process(&write_event(
            "posts",
            "bz", // ties with b on score, sorts after it by _id
            quaestor_store::WriteKind::Insert,
            scored("bz", 20),
            1,
        ));
        assert_eq!(s.window_ids(), vec!["a", "b"]);
        assert!(n.is_empty(), "boundary insert below the cut is invisible");
        // Whereas the same score with an _id sorting *before* b enters at
        // the edge: exactly one Add for it, one Remove for b.
        let n = s.process(&write_event(
            "posts",
            "aa",
            quaestor_store::WriteKind::Insert,
            scored("aa", 20),
            2,
        ));
        assert_eq!(s.window_ids(), vec!["a", "aa"]);
        let adds: Vec<&str> = n
            .iter()
            .filter(|x| x.event == NotificationEvent::Add)
            .map(|x| x.record_id.as_ref())
            .collect();
        let removes: Vec<&str> = n
            .iter()
            .filter(|x| x.event == NotificationEvent::Remove)
            .map(|x| x.record_id.as_ref())
            .collect();
        assert_eq!(adds, vec!["aa"], "exactly one Add for the entrant");
        assert_eq!(
            removes,
            vec!["b"],
            "exactly one Remove for the displaced tail"
        );
        assert_eq!(n.len(), 2, "no spurious events at the boundary");
    }

    #[test]
    fn leaving_exactly_at_window_tail_emits_remove_add_pair() {
        // b sits at the last window slot (index 1 of [0,2)). A score drop
        // that moves it exactly one past the edge must emit Remove(b) +
        // Add(c) — the promoted successor — and nothing else.
        let mut s = seeded();
        let n = s.process(&write_event(
            "posts",
            "b",
            quaestor_store::WriteKind::Update,
            scored("b", 5), // now sorts after c (10)
            1,
        ));
        assert_eq!(s.window_ids(), vec!["a", "c"]);
        assert!(n
            .iter()
            .any(|x| x.record_id.as_ref() == "b" && x.event == NotificationEvent::Remove));
        assert!(n
            .iter()
            .any(|x| x.record_id.as_ref() == "c" && x.event == NotificationEvent::Add));
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn offset_leading_edge_boundary_transitions() {
        // offset=1, limit=2 over scores 30/20/10/5: window = [b, c].
        let q = Query::table("posts")
            .filter(Filter::eq("kind", "post"))
            .sort_by("score", Order::Desc)
            .offset(1)
            .limit(2);
        let k = QueryKey::of(&q);
        let mut s = SortedQueryState::new(
            q,
            k,
            vec![
                Arc::new(scored("a", 30)),
                Arc::new(scored("b", 20)),
                Arc::new(scored("c", 10)),
                Arc::new(scored("d", 5)),
            ],
        );
        assert_eq!(s.window_ids(), vec!["b", "c"]);
        // a's score rises: it stays at rank 0, *outside* the window
        // (inside the offset). Nothing visible changed — no events.
        let n = s.process(&write_event(
            "posts",
            "a",
            quaestor_store::WriteKind::Update,
            scored("a", 99),
            1,
        ));
        assert_eq!(s.window_ids(), vec!["b", "c"]);
        assert!(n.is_empty(), "churn inside the offset is invisible");
        // a drops to exactly the window's leading edge (rank 1): a enters
        // the window, b slides from rank 1 to rank 2 (stays in), c slides
        // out of the tail.
        let n = s.process(&write_event(
            "posts",
            "a",
            quaestor_store::WriteKind::Update,
            scored("a", 15), // between b (20) and c (10)
            2,
        ));
        assert_eq!(s.window_ids(), vec!["a", "c"]);
        assert!(n
            .iter()
            .any(|x| x.record_id.as_ref() == "a" && x.event == NotificationEvent::Add));
        assert!(n
            .iter()
            .any(|x| x.record_id.as_ref() == "b" && x.event == NotificationEvent::Remove));
        // Deleting the record at the window's first slot promotes the
        // record just past the tail (d) into the window.
        let n = s.process(&write_event(
            "posts",
            "a",
            quaestor_store::WriteKind::Delete,
            scored("a", 15),
            3,
        ));
        assert_eq!(s.window_ids(), vec!["c", "d"]);
        assert!(n
            .iter()
            .any(|x| x.record_id.as_ref() == "a" && x.event == NotificationEvent::Remove));
        assert!(n
            .iter()
            .any(|x| x.record_id.as_ref() == "d" && x.event == NotificationEvent::Add));
    }

    #[test]
    fn filter_still_applies() {
        let mut s = seeded();
        // Fails the predicate: kind != post.
        let n = s.process(&write_event(
            "posts",
            "x",
            quaestor_store::WriteKind::Insert,
            doc! { "_id" => "x", "score" => 100, "kind" => "draft" },
            1,
        ));
        assert!(n.is_empty());
        assert_eq!(s.window_ids(), vec!["a", "b"]);
    }

    #[test]
    fn leaving_predicate_leaves_window() {
        let mut s = seeded();
        let n = s.process(&write_event(
            "posts",
            "a",
            quaestor_store::WriteKind::Update,
            doc! { "_id" => "a", "score" => 30, "kind" => "draft" },
            1,
        ));
        assert_eq!(s.window_ids(), vec!["b", "c"]);
        assert!(n
            .iter()
            .any(|x| x.record_id.as_ref() == "a" && x.event == NotificationEvent::Remove));
    }
}
