"""Case studies (Fig. 1, Fig. 3, Fig. 9, Fig. 12).

Each case runs full PATA (compile → explore → validate) once on a
faithful mini-C replica of one published bug and asserts the expected
verdict.
"""

import pytest

from repro import PATA
from repro.typestate import BugKind

FIG1_LINUX_S5P_MFC = """
struct platform_device { int irq; };
struct mfc_dev { struct platform_device *plat_dev; int num; };
static struct mfc_dev the_dev;
static int s5p_mfc_probe(struct platform_device *pdev) {
    struct mfc_dev *dev = &the_dev;
    dev->plat_dev = pdev;
    if (!dev->plat_dev) {
        int err = pdev->irq;
        return -19;
    }
    return 0;
}
struct platform_driver { int (*probe)(struct platform_device *p); };
static struct platform_driver s5p_mfc_driver = { .probe = s5p_mfc_probe };
"""

FIG3_ZEPHYR_FRIEND_SET = """
struct bt_mesh_cfg_srv { int frnd; int relay; };
struct bt_mesh_model { struct bt_mesh_cfg_srv *user_data; int id; };
static void send_friend_status(struct bt_mesh_model *model) {
    struct bt_mesh_cfg_srv *cfg = model->user_data;
    int x = cfg->frnd;
}
static void friend_set(struct bt_mesh_model *model) {
    struct bt_mesh_cfg_srv *cfg = model->user_data;
    if (!cfg) { goto send_status; }
    cfg->relay = 1;
send_status:
    send_friend_status(model);
}
struct model_ops { void (*set)(struct bt_mesh_model *m); };
static struct model_ops friend_ops = { .set = friend_set };
"""

FIG9_FALSE_BUG = """
struct fb { int f; };
int sync_fb(struct fb *p, struct fb *q) {
    if (q == NULL)
        p->f = 0;
    struct fb *t = p;
    if (t->f != 0) {
        int v = q->f;
        return v;
    }
    return 0;
}
struct fb_ops { int (*sync)(struct fb *p, struct fb *q); };
static struct fb_ops fops = { .sync = sync_fb };
"""

FIG12A_MCDE_DSI = """
struct dsi { int lanes; int mode_flags; };
struct mcde { struct dsi *mdsi; int val; };
static void mcde_dsi_start(struct mcde *d) {
    if (d->mdsi->mode_flags & 1)
        d->val = d->val | 1;
    if (d->mdsi->lanes == 2)
        d->val = d->val | 2;
}
static int mcde_dsi_bind(struct mcde *d) {
    if (d->mdsi)
        d->val = 1;
    mcde_dsi_start(d);
    return 0;
}
struct component_ops { int (*bind)(struct mcde *d); };
static struct component_ops ops = { .bind = mcde_dsi_bind };
"""

FIG12C_RIOT_MAKE_MESSAGE = """
static int do_format(int size) {
    if (size > 64)
        return -1;
    return size;
}
int make_message(int size) {
    char *message = malloc(size);
    if (message == NULL)
        return -1;
    int n = do_format(size);
    if (n < 0)
        return -2;
    consume(message);
    free(message);
    return 0;
}
"""

FIG12D_TENCENTOS_PTHREAD = """
struct ktask { int knl_obj_type; int prio; };
static int knl_object_verify(struct ktask *obj) {
    return obj->knl_obj_type == 5;
}
static int tos_task_create(struct ktask *task) {
    return knl_object_verify(task);
}
int pthread_create(int prio) {
    struct ktask *the_ctl = kmalloc(sizeof(struct ktask));
    if (!the_ctl)
        return -12;
    int kerr = tos_task_create(the_ctl);
    the_ctl->prio = prio;
    kfree(the_ctl);
    return kerr;
}
"""

CASES = [
    ("fig1_s5p_mfc", FIG1_LINUX_S5P_MFC, BugKind.NPD, 1),
    ("fig3_friend_set", FIG3_ZEPHYR_FRIEND_SET, BugKind.NPD, 1),
    ("fig9_false_bug", FIG9_FALSE_BUG, BugKind.NPD, 0),
    ("fig12a_mcde_dsi", FIG12A_MCDE_DSI, BugKind.NPD, 2),
    ("fig12c_make_message", FIG12C_RIOT_MAKE_MESSAGE, BugKind.ML, 1),
    ("fig12d_pthread_create", FIG12D_TENCENTOS_PTHREAD, BugKind.UVA, 1),
]


@pytest.mark.parametrize("name,source,kind,expected", CASES, ids=[c[0] for c in CASES])
def test_case_study(name, source, kind, expected):
    result = PATA().analyze_sources([(f"{name}.c", source)])
    found = len(result.by_kind(kind))
    assert found == expected, f"{name}: expected {expected} {kind.short}, got {found}"
