//! The batch labelling of a 3-D fault set, the oracle for the components
//! `FaultSet3` keeps as faults arrive: one union-find pass over the
//! whole fault list, then one pass that assembles and orders the
//! components.

use mesh2d::bitgrid::joint_box;
use mocp_3d::{Coord3, FaultComponent3, FaultSet3};

/// Labels the 26-connected components of the faults with a union-find
/// over the fault list. Each fault, in injection order, joins the classes
/// of its already-placed neighbours, looked up in a dense slot map of the
/// mesh padded by one cell on every side. Returns the components ordered
/// by minimal `(z, y, x)` cell and, for each fault in injection order, the
/// index of its component.
pub fn fault_components(faults: &FaultSet3) -> (Vec<FaultComponent3>, Vec<usize>) {
    let list = faults.in_insertion_order();
    let mesh = faults.mesh();
    let sy = mesh.width() as usize + 2;
    let sz = sy * (mesh.height() as usize + 2);
    let slot = |c: Coord3| (c.x + 1) as usize + sy * (c.y + 1) as usize + sz * (c.z + 1) as usize;
    let mut offsets = Vec::with_capacity(26);
    for dz in -1isize..=1 {
        for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                if (dx, dy, dz) != (0, 0, 0) {
                    offsets.push(dx + dy * sy as isize + dz * sz as isize);
                }
            }
        }
    }
    // 1 + the list index of the fault placed in a slot; 0 while empty.
    let mut slots = vec![0u32; sz * (mesh.depth() as usize + 2)];
    let mut parent: Vec<usize> = (0..list.len()).collect();
    let find = |parent: &mut Vec<usize>, mut i: usize| {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    };
    for (i, &c) in list.iter().enumerate() {
        let s = slot(c);
        for &offset in &offsets {
            let placed = slots[s.wrapping_add_signed(offset)];
            if placed != 0 {
                let (ra, rb) = (find(&mut parent, i), find(&mut parent, placed as usize - 1));
                parent[ra] = rb;
            }
        }
        slots[s] = i as u32 + 1;
    }

    // Components in first-seen order, each with its smallest mesh index
    // (x-major, so the `(z, y, x)` order of its minimal cell).
    let mut component_of_root = vec![usize::MAX; list.len()];
    let mut components: Vec<FaultComponent3> = Vec::new();
    let mut min_index: Vec<(usize, usize)> = Vec::new();
    let mut labels: Vec<usize> = Vec::with_capacity(list.len());
    for (i, &c) in list.iter().enumerate() {
        let root = find(&mut parent, i);
        let index = mesh.index(c);
        let mut k = component_of_root[root];
        if k == usize::MAX {
            k = components.len();
            component_of_root[root] = k;
            components.push(FaultComponent3 {
                bbox: (c, c),
                min_cell: c,
                len: 1,
            });
            min_index.push((index, k));
        } else {
            let component = &mut components[k];
            component.bbox = joint_box(component.bbox, (c, c));
            component.len += 1;
            if index < min_index[k].0 {
                component.min_cell = c;
                min_index[k].0 = index;
            }
        }
        labels.push(k);
    }
    min_index.sort_unstable();
    let mut rank = vec![0; components.len()];
    for (r, &(_, k)) in min_index.iter().enumerate() {
        rank[k] = r;
    }
    for label in &mut labels {
        *label = rank[*label];
    }
    let components = min_index.iter().map(|&(_, k)| components[k]).collect();
    (components, labels)
}

/// Asserts that the components and labels `faults` keeps equal the batch
/// labelling of its fault list.
pub fn assert_labels_match(faults: &FaultSet3) {
    let (components, labels) = fault_components(faults);
    let kept: Vec<FaultComponent3> = faults.components().collect();
    assert_eq!(kept, components, "components of {faults:?}");
    assert_eq!(faults.component_labels(), labels, "labels of {faults:?}");
}
