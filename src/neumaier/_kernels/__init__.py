from ._slow import KERNEL_KIND, charpoly_adj, cluster_count, jacobi_eigenvalues, packed_powers, sweep_masks
